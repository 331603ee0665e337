package nvdfeed

// This file is the bounded-channel streaming pipeline: entries flow from
// the XML decoders to the consumer through fixed-capacity channels, so
// feed sets far larger than memory ingest with a constant footprint. The
// pipeline has three shapes, all emitting entries in exact feed order
// (path order, in-file order), so every downstream digest is identical
// to the materialized ReadFiles path:
//
//   - workers <= 1: one goroutine walks the files with the sequential
//     Reader and sends entries through the output window.
//   - one file, workers > 1: chunkPipeline — a splitter cuts the file
//     into ~chunkBytes chunks that end between children of the root
//     element (split.go), the worker pool decodes the chunks
//     concurrently, and a collector emits the entries in order. Entries,
//     skip counts and error text match the sequential Reader's.
//   - many files, workers > 1: up to `workers` files decode concurrently
//     (mirroring the old ReadFiles fan-out), each into its own bounded
//     channel; the collector drains the per-file channels in path order.
//
// At most (workers + 1) × streamWindow entries are in flight at any
// moment (the per-file/per-chunk windows plus the output window), and
// the within-file shape holds at most workers + 1 chunks of feed bytes
// — constants, independent of feed volume.

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"osdiversity/internal/cve"
)

// streamWindow is the per-channel entry capacity of the pipeline — the
// lookahead bound between the decode and consume stages.
const streamWindow = 256

// SkipStats aggregates lenient-skip counts across every reader that an
// operation opens (ReadFile, ReadFiles, StreamFiles spawn per-file
// readers internally, whose own Skipped() counters are unreachable).
// Attach one with WithSkipStats; the counter is safe for concurrent use.
type SkipStats struct {
	n atomic.Int64
}

// Skipped reports how many malformed entries lenient readers have
// dropped into this aggregate so far.
func (s *SkipStats) Skipped() int { return int(s.n.Load()) }

// WithSkipStats makes the reader add every lenient skip to st, in
// addition to its own Skipped counter. The batch helpers propagate the
// option to the readers they open internally, so callers of ReadFiles
// and StreamFiles can account for every dropped entry.
func WithSkipStats(st *SkipStats) ReaderOption {
	return func(r *Reader) {
		if st != nil {
			r.stats = append(r.stats, st)
		}
	}
}

// Stream is a running feed pipeline built by StreamFiles. Consume the
// Entries channel until it closes, then check Err; Skipped reports the
// lenient-skip total. Close cancels the pipeline early (safe to call at
// any time, including after a full drain).
type Stream struct {
	ch       chan *cve.Entry
	err      error // written by the pipeline before ch closes
	quit     chan struct{}
	quitOnce sync.Once
	stats    *SkipStats
}

// Entries returns the ordered entry channel. It closes when the feed
// set is exhausted, a terminal error occurs (see Err), or the stream is
// closed.
func (st *Stream) Entries() <-chan *cve.Entry { return st.ch }

// Err returns the terminal error of the pipeline: nil after a clean
// drain, the first decode/convert/open failure otherwise. Only valid
// once Entries has closed.
func (st *Stream) Err() error { return st.err }

// Skipped reports how many malformed entries the lenient pipeline has
// dropped so far (always 0 for strict streams, which fail instead).
func (st *Stream) Skipped() int { return st.stats.Skipped() }

// Close cancels the pipeline and releases its goroutines and file
// handles. It is idempotent and safe concurrently with consumption.
func (st *Stream) Close() {
	st.quitOnce.Do(func() { close(st.quit) })
}

// Next returns the next entry, io.EOF after a clean drain, or the
// stream's terminal error — the channel-free consumption style.
func (st *Stream) Next() (*cve.Entry, error) {
	e, ok := <-st.ch
	if !ok {
		if st.err != nil {
			return nil, st.err
		}
		return nil, io.EOF
	}
	return e, nil
}

// StreamFiles streams several feed files' entries in path order through
// a bounded pipeline. With Workers(n > 1) up to n files decode
// concurrently (or, for a single file, per-entry conversion fans out to
// the pool); memory in flight stays bounded by the channel windows
// regardless of the feed volume. Lenient skips count into Skipped and
// any WithSkipStats aggregate.
func StreamFiles(paths []string, opts ...ReaderOption) *Stream {
	probe := NewReader(nil, opts...)
	st := &Stream{
		ch:    make(chan *cve.Entry, streamWindow),
		quit:  make(chan struct{}),
		stats: &SkipStats{},
	}
	// Chain the stream's own aggregate after any caller-supplied stats.
	opts = append(append([]ReaderOption(nil), opts...), WithSkipStats(st.stats))
	switch {
	case probe.workers > 1 && len(paths) > 1:
		st.runMultiFile(paths, opts, probe.workers)
	case probe.workers > 1 && len(paths) == 1:
		go func() {
			defer close(st.ch)
			st.err = st.pipelineFile(paths[0], opts)
		}()
	default:
		go func() {
			defer close(st.ch)
			for _, path := range paths {
				if err := st.serialFile(path, opts); err != nil {
					st.err = err
					return
				}
				select {
				case <-st.quit:
					return
				default:
				}
			}
		}()
	}
	return st
}

// serialFile walks one file with the sequential Reader, sending entries
// through the output window.
func (st *Stream) serialFile(path string, opts []ReaderOption) error {
	r, err := OpenFile(path, opts...)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		e, err := r.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		select {
		case st.ch <- e:
		case <-st.quit:
			return nil
		}
	}
}

// pipelineFile runs one file through the bounded conversion pipeline,
// emitting straight into the stream's output channel.
func (st *Stream) pipelineFile(path string, opts []ReaderOption) error {
	r, err := OpenFile(path, opts...)
	if err != nil {
		return err
	}
	defer r.Close()
	return r.chunkPipeline(func(e *cve.Entry) bool {
		select {
		case st.ch <- e:
			return true
		case <-st.quit:
			return false
		}
	})
}

// fileStream is one file's bounded leg of the multi-file fan-out.
type fileStream struct {
	out chan *cve.Entry
	err error // valid once out is closed
}

// runMultiFile decodes up to `workers` files concurrently, each into a
// bounded per-file channel, and drains them into the output channel in
// path order. Concurrency and lookahead are both governed by the files
// queue: a producer only spawns once its file is enqueued, and the
// queue holds workers-1 files beyond the one the collector is
// draining, so at most `workers` files decode at once. Crucially the
// head-of-line file's producer always runs — a separate semaphore
// acquired in spawn order could hand every slot to later files, whose
// full windows then wait on the collector, which waits on the head
// file: deadlock.
func (st *Stream) runMultiFile(paths []string, opts []ReaderOption, workers int) {
	// Cross-file fan-out already saturates the pool; forcing each file
	// to the sequential decoder avoids stacking the within-file pipeline
	// on top of it (same policy the materialized fast path used).
	perFileOpts := append(append([]ReaderOption(nil), opts...), Workers(1))
	files := make(chan *fileStream, workers-1)

	go func() {
		defer close(files)
		for _, path := range paths {
			fs := &fileStream{out: make(chan *cve.Entry, streamWindow)}
			select {
			case files <- fs:
			case <-st.quit:
				return
			}
			go func(path string, fs *fileStream) {
				defer close(fs.out)
				fs.err = decodeInto(path, perFileOpts, fs.out, st.quit)
			}(path, fs)
		}
	}()

	go func() {
		defer close(st.ch)
		for fs := range files {
			for e := range fs.out {
				select {
				case st.ch <- e:
				case <-st.quit:
					return
				}
			}
			if fs.err != nil {
				st.err = fs.err
				// Wake the remaining producers; they would otherwise
				// block on their full windows forever.
				st.Close()
				return
			}
		}
	}()
}

// decodeInto decodes one file sequentially into a bounded channel,
// stopping early when quit closes.
func decodeInto(path string, opts []ReaderOption, out chan<- *cve.Entry, quit <-chan struct{}) error {
	r, err := OpenFile(path, opts...)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		e, err := r.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		select {
		case out <- e:
		case <-quit:
			return nil
		}
	}
}

// convResult is one converted entry of a chunk: the entry, or the
// conversion error the collector skips (lenient) or returns (strict).
type convResult struct {
	entry *cve.Entry
	err   error
}

// chunkStream is one chunk's bounded leg of the within-file pipeline,
// as fileStream is one file's.
type chunkStream struct {
	out chan convResult
	err error // the chunk's terminal decode error; valid once out is closed
}

// chunkPipeline decodes one feed on the worker pool. A splitter
// goroutine cuts the byte stream into chunks that end between children
// of the root element (split.go); each chunk decodes on its own
// goroutine with the serial nextRaw and toEntry code into a bounded
// channel; and the collector, here, drains the chunks in feed order,
// counting lenient skips and stopping at the first error exactly where
// the serial reader would. emit returns false to stop early. The
// returned error is nil on a clean EOF or early stop.
//
// As in runMultiFile, a chunk's decoder starts only once the chunk is
// queued, and the queue holds workers-1 chunks beyond the one being
// drained, so at most `workers` chunks decode at once and at most
// workers+1 chunks are held in memory, counting the one the splitter
// fills. chunkPipeline does not return until every goroutine it started
// has exited, so the caller may close the underlying reader next.
func (r *Reader) chunkPipeline(emit func(*cve.Entry) bool) error {
	workers := max(r.workers, 1)
	chunks := make(chan *chunkStream, workers-1)
	quit := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(quit)
		wg.Wait()
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(chunks)
		sp := newSplitter(r.src)
		for {
			ck, more := sp.next()
			c := &chunkStream{out: make(chan convResult, streamWindow)}
			select {
			case chunks <- c:
			case <-quit:
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(c.out)
				c.err = decodeChunk(ck, c.out, quit)
			}()
			if !more {
				return
			}
		}
	}()

	for c := range chunks {
		for res := range c.out {
			if res.err != nil {
				if r.lenient {
					r.noteSkip()
					continue
				}
				return res.err
			}
			if !emit(res.entry) {
				return nil
			}
		}
		if c.err != nil {
			return c.err
		}
	}
	return nil
}

// decodeChunk decodes one chunk with the serial code into out, stopping
// early when quit closes.
func decodeChunk(ck chunk, out chan<- convResult, quit <-chan struct{}) error {
	defer putDoc(ck.doc)
	var src io.Reader = bytes.NewReader(ck.doc)
	if ck.tail != nil {
		src = io.MultiReader(src, ck.tail)
	}
	r := &Reader{src: src, lineOffset: ck.lineOffset}
	for {
		raw, err := r.nextRaw()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		e, err := raw.toEntry()
		select {
		case out <- convResult{entry: e, err: err}:
		case <-quit:
			return nil
		}
	}
}

// nextRaw returns the next raw <entry> element, or io.EOF at end of
// stream. Every decode failure is terminal, in lenient mode too:
// encoding/xml cannot resume after a syntax error.
func (r *Reader) nextRaw() (*xmlEntry, error) {
	if r.dec == nil {
		r.dec = xml.NewDecoder(r.src)
	}
	for {
		tok, err := r.dec.Token()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("nvdfeed: token: %w", r.fileLine(err))
		}
		start, ok := tok.(xml.StartElement)
		if !ok || start.Name.Local != "entry" {
			continue
		}
		var raw xmlEntry
		if err := r.dec.DecodeElement(&raw, &start); err != nil {
			return nil, fmt.Errorf("nvdfeed: decode entry: %w", r.fileLine(err))
		}
		return &raw, nil
	}
}

// fileLine shifts the line of an XML syntax error by the reader's line
// offset, so a chunk's error names the line in the whole file.
func (r *Reader) fileLine(err error) error {
	var se *xml.SyntaxError
	if r.lineOffset != 0 && errors.As(err, &se) {
		se.Line += r.lineOffset
	}
	return err
}
