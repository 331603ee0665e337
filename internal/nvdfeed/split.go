package nvdfeed

// This file is the splitter of the within-file pipeline (chunkPipeline
// in stream.go). It cuts a feed's decompressed bytes into chunks, each a
// document that a fresh xml.Decoder reads exactly as the serial reader
// reads the same stretch of the whole file:
//
//	prolog through the root start tag   copied verbatim, so namespace
//	                                    bindings and any DOCTYPE match
//	body bytes                          ending just after a child of
//	                                    the root
//	"</" + root name + ">"              every chunk but the last
//
// A cut falls only where the serial decoder stands between two children
// of the root: its element stack holds the root alone and no token is
// pending. The splitter finds those points from lexical state only —
// tags, quoted attribute values, comments, CDATA sections, processing
// instructions and depth. Where its reading could differ from
// encoding/xml on well-formed input (a directive inside the root, a
// comment with "--" in it, the root's own end tag) it stops cutting, and
// the rest of the file becomes the last chunk: the serial decode. On
// malformed input every cut before the first syntax error is sound, so
// the chunk that holds the error fails at the same byte with the same
// message; its line is shifted back by the chunk's lineOffset.

import (
	"bytes"
	"encoding/xml"
	"io"
	"sync"
)

// chunkBytes is the body size after which the splitter cuts at the next
// end of a child of the root. It is fixed in production; the tests
// shrink it to force a cut after every child.
var chunkBytes = 256 << 10

const (
	// prologBytes bounds the search for the root start tag; a longer
	// prolog turns cutting off.
	prologBytes = 64 << 10
	// readBlock is the least spare capacity a read is given.
	readBlock = 32 << 10
)

// chunk is one piece of a feed for decodeChunk: a complete document, or
// for the last chunk the head of one followed by tail; and the number of
// lines the file holds between the root start tag and the chunk's body.
type chunk struct {
	doc        []byte
	tail       io.Reader
	lineOffset int
}

// docPool recycles chunk documents: a decoder hands its document back
// once done, and the splitter copies the next chunk into it.
var docPool sync.Pool

func getDoc() []byte {
	if p, ok := docPool.Get().(*[]byte); ok {
		return (*p)[:0]
	}
	return nil
}

func putDoc(doc []byte) { docPool.Put(&doc) }

// splitter cuts one feed stream into chunks. It is used by one goroutine.
type splitter struct {
	src      io.Reader
	err      error  // the first read error; io.EOF at the end of src
	header   []byte // the prolog through the root start tag
	closeTag []byte // "</" + the root's name as written + ">"
	buf      []byte // read buffer: buf[start:] is the body not cut yet
	start    int
	pos      int // scan offset in buf
	lex      lexer
	lines    int // newlines in the bodies cut so far
}

func newSplitter(src io.Reader) *splitter {
	s := &splitter{src: src, buf: make([]byte, 0, max(2*chunkBytes, prologBytes)+readBlock)}
	for len(s.buf) < prologBytes && s.err == nil {
		s.fill()
	}
	h, name := findRoot(s.buf)
	if h < 0 {
		s.lex.state = lexStop
		return s
	}
	s.header = bytes.Clone(s.buf[:h])
	s.closeTag = append(append([]byte("</"), name...), '>')
	s.start, s.pos = h, h
	s.lex.depth = 1
	return s
}

// findRoot locates the root start tag in the first bytes b of a feed.
// It returns the offset just past the tag and the root's name as
// written, or -1 where cutting is unsafe: the prolog is malformed or
// longer than b, the root is empty, or the root is itself an <entry>,
// which nextRaw would decode whole.
func findRoot(b []byte) (int, []byte) {
	d := xml.NewDecoder(bytes.NewReader(b))
	for {
		at := int(d.InputOffset())
		tok, err := d.Token()
		if err != nil {
			return -1, nil
		}
		start, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		end := int(d.InputOffset())
		if b[end-2] == '/' || start.Name.Local == "entry" {
			return -1, nil
		}
		name := b[at+1 : end]
		return end, name[:bytes.IndexAny(name, " \t\r\n/>")]
	}
}

// next returns the next chunk, and false with the last one, which also
// streams whatever of src the splitter has not read.
func (s *splitter) next() (chunk, bool) {
	for s.lex.state != lexStop {
		end, cut := s.lex.scan(s.buf, s.pos)
		s.pos = end
		if cut {
			if end-s.start >= chunkBytes {
				return s.cut(end), true
			}
			continue
		}
		if s.lex.state == lexStop || s.err != nil {
			break
		}
		s.fill()
	}
	ck := chunk{doc: s.document(len(s.buf), nil), lineOffset: s.lines}
	switch {
	case s.err == nil:
		ck.tail = s.src
	case s.err != io.EOF:
		ck.tail = errReader{s.err}
	}
	return ck, false
}

// cut closes the chunk whose body ends at buf offset end.
func (s *splitter) cut(end int) chunk {
	ck := chunk{doc: s.document(end, s.closeTag), lineOffset: s.lines}
	s.lines += bytes.Count(s.buf[s.start:end], []byte{'\n'})
	s.start = end
	return ck
}

// document copies the header, the body up to buf offset end and the
// given close tag into a document of the chunk's own.
func (s *splitter) document(end int, closeTag []byte) []byte {
	doc := append(getDoc(), s.header...)
	doc = append(doc, s.buf[s.start:end]...)
	return append(doc, closeTag...)
}

// fill appends one read from src to buf, first moving the uncut body to
// the front or growing buf when little spare capacity is left.
func (s *splitter) fill() {
	if cap(s.buf)-len(s.buf) < readBlock && s.start > 0 {
		n := copy(s.buf, s.buf[s.start:])
		s.buf, s.pos, s.start = s.buf[:n], s.pos-s.start, 0
	}
	if cap(s.buf)-len(s.buf) < readBlock {
		grown := make([]byte, len(s.buf), 2*cap(s.buf)+readBlock)
		copy(grown, s.buf)
		s.buf = grown
	}
	n, err := s.src.Read(s.buf[len(s.buf):cap(s.buf)])
	s.buf = s.buf[:len(s.buf)+n]
	if err != nil {
		s.err = err
	}
}

// errReader replays a read error after the bytes read before it.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// lexState is where the lexer stands in the markup.
type lexState uint8

const (
	lexText     lexState = iota // character data: looking for '<'
	lexMarkup                   // just past '<'
	lexStartTag                 // inside a start tag
	lexEndTag                   // inside an end tag
	lexBang                     // just past "<!"
	lexComment                  // just past "<!--", or inside the comment
	lexCDATA                    // inside "<![CDATA["
	lexPI                       // inside "<?"
	lexStop                     // no more cuts: see the file comment
)

// lexer tracks the lexical state the splitter needs across reads.
type lexer struct {
	state lexState
	quote byte // the open quote of an attribute value, in lexStartTag
	slash bool // the last start-tag byte scanned outside quotes was '/'
	depth int  // open elements, the root included
}

// scan advances over b from offset i. It returns the offset just past
// the next end of a child of the root, with true; or, with false, the
// offset to resume from once more bytes follow b, or any offset once
// the state is lexStop. It must not be called in lexStop.
func (lx *lexer) scan(b []byte, i int) (int, bool) {
	for i < len(b) {
		switch lx.state {
		case lexText:
			j := bytes.IndexByte(b[i:], '<')
			if j < 0 {
				return len(b), false
			}
			i += j + 1
			lx.state = lexMarkup
		case lexMarkup:
			switch b[i] {
			case '/':
				lx.state = lexEndTag
				i++
			case '?':
				lx.state = lexPI
				i++
			case '!':
				lx.state = lexBang
				i++
			default:
				lx.state, lx.quote, lx.slash = lexStartTag, 0, false
			}
		case lexStartTag:
			if lx.quote != 0 {
				j := bytes.IndexByte(b[i:], lx.quote)
				if j < 0 {
					return len(b), false
				}
				i += j + 1
				lx.quote, lx.slash = 0, false
				continue
			}
			j := bytes.IndexAny(b[i:], `"'>`)
			if j < 0 {
				lx.slash = b[len(b)-1] == '/'
				return len(b), false
			}
			if j > 0 {
				lx.slash = b[i+j-1] == '/'
			}
			c := b[i+j]
			i += j + 1
			switch {
			case c != '>':
				lx.quote = c
			case !lx.slash:
				lx.state = lexText
				lx.depth++
			default: // an empty element
				lx.state = lexText
				if lx.depth == 1 {
					return i, true
				}
			}
		case lexEndTag:
			j := bytes.IndexByte(b[i:], '>')
			if j < 0 {
				return len(b), false
			}
			i += j + 1
			lx.state = lexText
			lx.depth--
			switch lx.depth {
			case 1:
				return i, true
			case 0: // the root closed: what follows it is not cut
				lx.state = lexStop
				return i, false
			}
		case lexBang:
			rest := b[i:]
			switch {
			case bytes.HasPrefix(rest, []byte("--")):
				lx.state = lexComment
				i += 2
			case bytes.HasPrefix(rest, []byte("[CDATA[")):
				lx.state = lexCDATA
				i += len("[CDATA[")
			case len(rest) < len("[CDATA[") && (bytes.HasPrefix([]byte("--"), rest) || bytes.HasPrefix([]byte("[CDATA["), rest)):
				return i, false
			default: // a directive, or a malformed comment or CDATA
				lx.state = lexStop
				return i, false
			}
		case lexComment:
			// encoding/xml ends a comment at its first "--", which must
			// be followed by '>'.
			j := bytes.Index(b[i:], []byte("--"))
			switch {
			case j < 0:
				return max(i, len(b)-1), false
			case i+j+2 == len(b):
				return i + j, false
			case b[i+j+2] != '>':
				lx.state = lexStop
				return i, false
			}
			i += j + 3
			lx.state = lexText
		case lexCDATA:
			j := bytes.Index(b[i:], []byte("]]>"))
			if j < 0 {
				return max(i, len(b)-2), false
			}
			i += j + 3
			lx.state = lexText
		case lexPI:
			j := bytes.Index(b[i:], []byte("?>"))
			if j < 0 {
				return max(i, len(b)-1), false
			}
			i += j + 2
			lx.state = lexText
		}
	}
	return i, false
}
