// Sink-mode streaming merge: the out-of-core drain of the loser tree.
// MergeStreamSink pushes each merged item into a per-item callback, so the
// merged run never accumulates in memory — the budgeted pipeline points
// the sink at a sorted-run file writer and recycles each source's arena
// as its strings are consumed.
package merge

// Sink receives one merged item: the string, its LCP with the previous
// output (0 for the first; 0 throughout for non-LCP merges) and its
// satellite word (0 without Sats). The string is only guaranteed valid for
// the duration of the call — sources may recycle their arenas once their
// string has been sunk — so a sink that keeps it must copy.
type Sink func(s []byte, lcp int32, sat uint64) error

// MergeStreamSink merges the sources through the loser tree and
// pushes every output item into sink, in order. The item sequence
// (strings, LCPs, satellites) and the returned character work are
// bit-identical to MergeStream over the same sources (MergeStream is this
// loop with an appending sink). The merge is deliberately sequential — an
// incrementally written output file has no partition boundaries to hand
// off to. A sink error aborts the merge and is returned; sources are left
// mid-run (the caller's cleanup owns them).
func MergeStreamSink(sources []Source, opt StreamOptions, sink Sink) (n int64, work int64, err error) {
	t := newTree(len(sources), opt.LCP)
	defer t.release()
	t.srcs = sources
	for s := range sources {
		if t.fill(s) {
			t.setHead(s, 0, 0)
		}
	}
	t.init()
	for !t.done[t.winner] {
		w := t.winner
		lcp := int32(0)
		if opt.LCP && n > 0 {
			lcp = t.curH[w]
		}
		var sat uint64
		if opt.Sats {
			sat = t.sat(w)
		}
		if n == 0 && opt.OnFirstOutput != nil {
			opt.OnFirstOutput()
		}
		if err := sink(t.head[w], lcp, sat); err != nil {
			return n, t.work, err
		}
		n++
		t.advance()
	}
	return n, t.work, nil
}
