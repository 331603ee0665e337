package nvdfeed

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"osdiversity/internal/corpus"
	"osdiversity/internal/cve"
)

// setChunkBytes shrinks the splitter's chunk size for one test, so a
// small feed is cut after every child of the root.
func setChunkBytes(tb testing.TB, n int) {
	tb.Helper()
	old := chunkBytes
	chunkBytes = n
	tb.Cleanup(func() { chunkBytes = old })
}

// decodeResult is everything a caller can observe from ReadAll.
type decodeResult struct {
	entries []*cve.Entry
	skipped int
	err     string
}

func decodeFeed(feed []byte, lenient bool, workers int) decodeResult {
	opts := []ReaderOption{Workers(workers)}
	if lenient {
		opts = append(opts, Lenient())
	}
	r := NewReader(strings.NewReader(string(feed)), opts...)
	entries, err := r.ReadAll()
	return decodeResult{entries: entries, skipped: r.Skipped(), err: fmt.Sprint(err)}
}

// checkChunkedMatchesSerial asserts the chunked pipeline gives the
// serial reader's entries, skip count and error text, in both modes.
func checkChunkedMatchesSerial(t *testing.T, feed []byte) {
	t.Helper()
	for _, lenient := range []bool{false, true} {
		want := decodeFeed(feed, lenient, 1)
		for _, workers := range []int{2, 4} {
			got := decodeFeed(feed, lenient, workers)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("lenient=%v workers=%d:\n got %d entries, %d skipped, err %s\nwant %d entries, %d skipped, err %s",
					lenient, workers, len(got.entries), got.skipped, got.err,
					len(want.entries), want.skipped, want.err)
			}
		}
	}
}

// FuzzFeedDecode decodes each input with the serial Reader and with the
// chunked pipeline, cutting after every child of the root and after
// every few children; the two must agree exactly. The seed corpus in
// testdata/fuzz/FuzzFeedDecode holds sampleFeed and variants: comments
// and CDATA between entries, a DOCTYPE, nested entries, a truncated
// tail, a re-bound prefix, a stray root end tag, a non-UTF-8 encoding
// declaration and an undefined entity.
func FuzzFeedDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, feed []byte) {
		for _, n := range []int{1, 600} {
			setChunkBytes(t, n)
			checkChunkedMatchesSerial(t, feed)
		}
	})
}

// TestChunkedLargeFeedMatchesSerial runs the differential check over a
// corpus-sized feed with production-sized chunks, clean and with a
// syntax error late in the file, so error lines cross many chunks.
func TestChunkedLargeFeedMatchesSerial(t *testing.T) {
	var b strings.Builder
	if err := WriteFeed(&b, "CVE-TEST", corpusEntries(t)); err != nil {
		t.Fatalf("WriteFeed: %v", err)
	}
	feed := b.String()
	if len(feed) < 4*chunkBytes {
		t.Fatalf("feed of %d bytes spans too few chunks", len(feed))
	}
	checkChunkedMatchesSerial(t, []byte(feed))

	at := strings.LastIndex(feed, "<vuln:summary>")
	broken := feed[:at] + "<vuln:summary>&bogus;" + feed[at+len("<vuln:summary>"):]
	got := decodeFeed([]byte(broken), true, 4)
	if !strings.Contains(got.err, "invalid character entity &bogus;") {
		t.Fatalf("err = %s, want the undefined entity", got.err)
	}
	checkChunkedMatchesSerial(t, []byte(broken))
}

// TestSyntaxErrorTerminalEveryMode pins that malformed XML ends the
// stream at every worker count, in lenient mode too, without counting a
// skip: encoding/xml cannot resume after a syntax error.
func TestSyntaxErrorTerminalEveryMode(t *testing.T) {
	feed := strings.Replace(sampleFeed, "Stack-based buffer overflow", "Stack-based &bogus; overflow", 1)
	const wantErr = "nvdfeed: decode entry: XML syntax error on line 40: invalid character entity &bogus;"
	for _, lenient := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("lenient=%v/workers=%d", lenient, workers), func(t *testing.T) {
				setChunkBytes(t, 1)
				got := decodeFeed([]byte(feed), lenient, workers)
				if len(got.entries) != 1 || got.entries[0].ID != cve.MustID("CVE-2008-4609") {
					t.Errorf("entries = %v, want CVE-2008-4609 alone", got.entries)
				}
				if got.skipped != 0 {
					t.Errorf("Skipped() = %d, want 0", got.skipped)
				}
				if got.err != wantErr {
					t.Errorf("err = %s\nwant %s", got.err, wantErr)
				}
			})
		}
	}
}

// corpusEntries is the calibrated corpus as one entry list.
func corpusEntries(t *testing.T) []*cve.Entry {
	t.Helper()
	c, err := corpus.Generate()
	if err != nil {
		t.Fatalf("corpus.Generate: %v", err)
	}
	return c.Entries
}

// TestChunkedTruncatedGzipMatchesSerial cuts a compressed feed short, so
// the read error lands mid-file: the chunked pipeline must report it
// after the same entries as the serial reader.
func TestChunkedTruncatedGzipMatchesSerial(t *testing.T) {
	path := filepath.Join(t.TempDir(), "feed.xml.gz")
	if err := WriteFile(path, "CVE-TEST", corpusEntries(t)); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	setChunkBytes(t, 4<<10)
	read := func(workers int) decodeResult {
		entries, err := ReadFile(path, Workers(workers))
		return decodeResult{entries: entries, err: fmt.Sprint(err)}
	}
	want := read(1)
	if want.err == "<nil>" || len(want.entries) == 0 {
		t.Fatalf("serial read of a truncated feed: %d entries, err %s", len(want.entries), want.err)
	}
	for _, workers := range []int{2, 4} {
		if got := read(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers %d: %d entries, err %s; want %d entries, err %s",
				workers, len(got.entries), got.err, len(want.entries), want.err)
		}
	}
}
