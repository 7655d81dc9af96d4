package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// oneShot is the reference decoder of a format: the exact non-streaming
// path each RunFormat mirrors (DecodeStrings / DecodeStringsLCP).
func oneShot(format RunFormat, msg []byte) ([]Item, error) {
	switch format {
	case RunStrings:
		ss, err := DecodeStrings(msg)
		if err != nil {
			return nil, err
		}
		items := make([]Item, len(ss))
		for i, s := range ss {
			items[i] = Item{S: s}
		}
		return items, nil
	case RunStringsLCP:
		ss, lcps, err := DecodeStringsLCP(msg)
		if err != nil {
			return nil, err
		}
		items := make([]Item, len(ss))
		for i, s := range ss {
			items[i] = Item{S: s, LCP: lcps[i]}
		}
		return items, nil
	}
	panic("unknown format")
}

// streamDecode runs a RunReader over msg cut at the given boundaries
// (ascending offsets into msg) and collects every item.
func streamDecode(format RunFormat, msg []byte, cuts []int) ([]Item, error) {
	r := NewRunReader(format)
	prev := 0
	for _, c := range cuts {
		r.Feed(msg[prev:c])
		prev = c
	}
	r.Feed(msg[prev:])
	r.Finish()
	var items []Item
	for {
		it, ok, err := r.Next()
		if err != nil {
			return items, err
		}
		if !ok {
			if !r.Done() {
				return items, fmt.Errorf("reader stalled: not done, no error")
			}
			return items, nil
		}
		items = append(items, it)
	}
}

func itemsEqual(a, b []Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].S, b[i].S) || a[i].LCP != b[i].LCP || a[i].Sat != b[i].Sat {
			return false
		}
	}
	return true
}

// lcpOf computes the LCP of two byte strings (test-local helper).
func lcpOf(a, b []byte) int32 {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return int32(i)
}

// encodeRun builds a valid encoded run of the given format over a sorted
// string set.
func encodeRun(format RunFormat, ss [][]byte) []byte {
	lcps := make([]int32, len(ss))
	for i := 1; i < len(ss); i++ {
		lcps[i] = lcpOf(ss[i-1], ss[i])
	}
	switch format {
	case RunStrings:
		return EncodeStrings(ss)
	case RunStringsLCP:
		return EncodeStringsLCP(ss, lcps)
	}
	panic("unknown format")
}

var runFormats = []RunFormat{RunStrings, RunStringsLCP}

// testRuns are the string-set shapes every format is exercised with.
func testRuns() [][][]byte {
	return [][][]byte{
		{},
		{[]byte("")},
		{[]byte("a")},
		{[]byte(""), []byte(""), []byte("")},
		{[]byte("aa"), []byte("aab"), []byte("aab"), []byte("abc"), []byte("b")},
		{[]byte("shared-prefix-shared-prefix-1"), []byte("shared-prefix-shared-prefix-2"),
			[]byte("shared-prefix-shared-prefix-2x"), []byte("zzzzzzzzzzzzzzzzzzzzzzzzzzzzzz")},
	}
}

// TestRunReaderEverySplitPoint feeds every test run, in every format,
// sliced at EVERY single byte boundary (two chunks) and additionally in
// uniform chunks of 1..5 bytes, and requires the decoded items to be
// identical to the one-shot decoder's.
func TestRunReaderEverySplitPoint(t *testing.T) {
	for _, format := range runFormats {
		for ri, ss := range testRuns() {
			msg := encodeRun(format, ss)
			want, err := oneShot(format, msg)
			if err != nil {
				t.Fatalf("format %d run %d: reference decode failed: %v", format, ri, err)
			}
			// Two chunks, split at every boundary (0 and len included).
			for cut := 0; cut <= len(msg); cut++ {
				got, err := streamDecode(format, msg, []int{cut})
				if err != nil {
					t.Fatalf("format %d run %d cut %d: %v", format, ri, cut, err)
				}
				if !itemsEqual(want, got) {
					t.Fatalf("format %d run %d cut %d: items differ", format, ri, cut)
				}
			}
			// Uniform tiny chunks: every reader state resumes repeatedly.
			for width := 1; width <= 5; width++ {
				var cuts []int
				for c := width; c < len(msg); c += width {
					cuts = append(cuts, c)
				}
				got, err := streamDecode(format, msg, cuts)
				if err != nil {
					t.Fatalf("format %d run %d width %d: %v", format, ri, width, err)
				}
				if !itemsEqual(want, got) {
					t.Fatalf("format %d run %d width %d: items differ", format, ri, width)
				}
			}
		}
	}
}

// TestRunReaderGarbageTailsAndTruncations pins the failure-mode parity
// with the one-shot decoders: garbage appended after a complete run is
// ignored (exactly like the one-shot decoders ignore trailing bytes), and
// every strict prefix of an encoding either errors cleanly or — never —
// fabricates a complete run.
func TestRunReaderGarbageTailsAndTruncations(t *testing.T) {
	ss := [][]byte{[]byte("aa"), []byte("aab"), []byte("abc"), []byte("b")}
	for _, format := range runFormats {
		msg := encodeRun(format, ss)
		want, err := oneShot(format, msg)
		if err != nil {
			t.Fatalf("format %d: reference decode failed: %v", format, err)
		}
		// Garbage tails, fed both within the final chunk and as extra ones.
		for _, tail := range [][]byte{{0x00}, {0xff, 0xff, 0xff}, bytes.Repeat([]byte{0xab}, 64)} {
			dirty := append(append([]byte(nil), msg...), tail...)
			if wantDirty, err := oneShot(format, dirty); err != nil || !itemsEqual(want, wantDirty) {
				t.Fatalf("format %d: one-shot no longer ignores tails (%v)", format, err)
			}
			for _, cuts := range [][]int{{len(msg)}, {len(msg) / 2}, {len(msg), len(msg) + 1}} {
				got, err := streamDecode(format, dirty, cuts)
				if err != nil {
					t.Fatalf("format %d tail cuts %v: %v", format, cuts, err)
				}
				if !itemsEqual(want, got) {
					t.Fatalf("format %d tail cuts %v: items differ", format, cuts)
				}
			}
		}
		// Truncations: the one-shot decoder fails on every strict prefix of
		// this encoding; the streaming reader must fail too (possibly after
		// emitting the items that were already complete), never stall or
		// panic.
		for cut := 0; cut < len(msg); cut++ {
			if _, err := oneShot(format, msg[:cut]); err == nil {
				continue // a prefix that happens to decode (not for these runs)
			}
			if _, err := streamDecode(format, msg[:cut], []int{cut / 2}); err == nil {
				t.Fatalf("format %d: truncation at %d not reported", format, cut)
			}
		}
	}
}

// TestRunReaderDoesNotAliasChunks enforces the reader half of the merge
// aliasing contract: decoded strings must never reference the fed chunk
// storage. Every chunk is fed through ONE reused buffer that is scribbled
// over immediately after Feed returns — exactly what the transport's
// buffer pool does — and the decoded items must still match the one-shot
// reference at the end.
func TestRunReaderDoesNotAliasChunks(t *testing.T) {
	ss := [][]byte{[]byte("alpha"), []byte("alphabet"), []byte("alphabetical"), []byte("beta")}
	for _, format := range runFormats {
		msg := encodeRun(format, ss)
		want, _ := oneShot(format, msg)
		r := NewRunReader(format)
		scratch := make([]byte, 3)
		var got []Item
		for off := 0; off < len(msg); off += len(scratch) {
			end := off + len(scratch)
			if end > len(msg) {
				end = len(msg)
			}
			chunk := scratch[:end-off]
			copy(chunk, msg[off:end])
			r.Feed(chunk)
			for i := range chunk {
				chunk[i] = 0xee // recycle the buffer: decoded data must survive
			}
			for {
				it, ok, err := r.Next()
				if err != nil {
					t.Fatalf("format %d: %v", format, err)
				}
				if !ok {
					break
				}
				got = append(got, it)
			}
		}
		r.Finish()
		for {
			it, ok, err := r.Next()
			if err != nil {
				t.Fatalf("format %d: %v", format, err)
			}
			if !ok {
				break
			}
			got = append(got, it)
		}
		if !r.Done() {
			t.Fatalf("format %d: reader not done", format)
		}
		if !itemsEqual(want, got) {
			t.Fatalf("format %d: decoded items corrupted by chunk-buffer reuse", format)
		}
	}
}

// FuzzRunReader compares the streaming reader against the one-shot
// decoder on arbitrary bytes and arbitrary chunkings: when the one-shot
// path accepts the message the reader must produce the identical item
// sequence; when it rejects, the reader must report a clean error (items
// it emitted before hitting the corruption are fine — a streaming decoder
// cannot see the tail first). Never a panic, a stall, or an over-read.
func FuzzRunReader(f *testing.F) {
	for _, format := range runFormats {
		for _, ss := range testRuns() {
			f.Add(uint8(format), uint8(3), encodeRun(format, ss))
		}
	}
	f.Add(uint8(RunStringsLCP), uint8(1), []byte{2, 0, 3, 'a', 'b', 'c', 9, 1}) // lcp 9 > prev len
	f.Add(uint8(RunStrings), uint8(2), []byte{1, 200, 1, 'x'})                  // string longer than msg
	f.Add(uint8(RunStrings), uint8(1), bytes.Repeat([]byte{0xff}, 16))          // varint overflow
	for _, format := range runFormats {
		for _, ss := range testRuns() {
			f.Add(uint8(format), uint8(2), append(encodeRun(format, ss), 0xff, 0x01)) // garbage tail
		}
	}
	f.Fuzz(func(t *testing.T, f8, width8 uint8, msg []byte) {
		format := RunFormat(int(f8) % len(runFormats))
		width := int(width8%16) + 1
		want, wantErr := oneShot(format, msg)
		var cuts []int
		for c := width; c < len(msg); c += width {
			cuts = append(cuts, c)
		}
		got, gotErr := streamDecode(format, msg, cuts)
		if wantErr == nil {
			if gotErr != nil {
				t.Fatalf("one-shot accepts but stream rejects: %v", gotErr)
			}
			if !itemsEqual(want, got) {
				t.Fatalf("items differ:\none-shot: %d items\nstream:   %d items", len(want), len(got))
			}
		} else if gotErr == nil {
			t.Fatalf("one-shot rejects (%v) but stream accepts %d items", wantErr, len(got))
		}
	})
}

// TestRunReaderEmptyFirstStringIsNonNil is the regression test of the nil
// head bug: a run BEGINNING with empty strings must decode them as empty
// NON-NIL slices, exactly like the one-shot arena decoders do — a nil
// string reads as the loser tree's exhausted sentinel and would silently
// drop the rest of the run (see merge.Source's Head contract).
func TestRunReaderEmptyFirstStringIsNonNil(t *testing.T) {
	ss := [][]byte{{}, {}, []byte("b")}
	for _, format := range runFormats {
		msg := encodeRun(format, ss)
		for _, width := range []int{1, 2, len(msg)} {
			var cuts []int
			for c := width; c < len(msg); c += width {
				cuts = append(cuts, c)
			}
			items, err := streamDecode(format, msg, cuts)
			if err != nil {
				t.Fatalf("format %d width %d: %v", format, width, err)
			}
			if len(items) != len(ss) {
				t.Fatalf("format %d width %d: %d items, want %d", format, width, len(items), len(ss))
			}
			for i, it := range items {
				if it.S == nil {
					t.Fatalf("format %d width %d: item %d decoded to a nil slice", format, width, i)
				}
			}
		}
	}
}

// TestRunReaderRejectsHugeSectionLengths pins the length sanity of both
// formats: a declared string length or string count beyond any real frame
// must fail as clean truncation once the stream ends (the one-shot
// decoders' ErrTruncated), never allocate for it, stall or panic.
func TestRunReaderRejectsHugeSectionLengths(t *testing.T) {
	for _, format := range runFormats {
		for _, huge := range []uint64{1 << 31, 1 << 62, 1 << 63, ^uint64(0)} {
			// count = 1, then a string whose declared length is huge.
			msg := []byte{1}
			if format == RunStringsLCP {
				msg = append(msg, 0) // LCP with the (absent) predecessor
			}
			msg = binary.AppendUvarint(msg, huge)
			msg = append(msg, 'x')
			if _, err := streamDecode(format, msg, []int{1, 2}); err == nil {
				t.Fatalf("format %d: string length %d accepted", format, huge)
			}
			// A huge count followed by one valid string.
			msg = binary.AppendUvarint(nil, huge)
			if format == RunStringsLCP {
				msg = append(msg, 0)
			}
			msg = append(msg, 1, 'x')
			if _, err := streamDecode(format, msg, []int{2, 3}); err == nil {
				t.Fatalf("format %d: string count %d accepted", format, huge)
			}
		}
	}
}
