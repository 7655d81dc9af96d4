package wire

import "testing"

// TestRunReaderWindowMatchesOneShot drives the windowed pull the way the
// budgeted merge does: after every fed chunk, take the window of strings
// decoded so far, consume it, then Recycle before the next chunk. The
// concatenated windows must equal the one-shot decode, and a window must
// never decode ahead of the fed bytes nor hand out a string twice.
func TestRunReaderWindowMatchesOneShot(t *testing.T) {
	for _, format := range runFormats {
		for ri, ss := range testRuns() {
			msg := encodeRun(format, ss)
			want, err := oneShot(format, msg)
			if err != nil {
				t.Fatal(err)
			}
			for width := 1; width <= len(msg); width++ {
				r := NewRunReader(format)
				var got []Item
				pull := func() {
					strs, lcps, err := r.Window()
					if err != nil {
						t.Fatalf("format %d run %d width %d: %v", format, ri, width, err)
					}
					if len(strs) != len(lcps) {
						t.Fatalf("format %d run %d width %d: %d strings, %d LCPs", format, ri, width, len(strs), len(lcps))
					}
					for i := range strs {
						got = append(got, Item{S: append([]byte{}, strs[i]...), LCP: lcps[i]})
					}
					r.Recycle()
				}
				for off := 0; off < len(msg); off += width {
					r.Feed(msg[off:min(off+width, len(msg))])
					pull()
				}
				r.Finish()
				pull()
				if !r.Done() || !itemsEqual(got, want) {
					t.Fatalf("format %d run %d width %d: done=%v, windows %v, want %v", format, ri, width, r.Done(), got, want)
				}
			}
		}
	}
}
