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

// MergeStreamSink merges the sources through the streaming loser tree and
// pushes every output item into sink, in order. The item sequence
// (strings, LCPs, satellites) and the returned character work are
// bit-identical to MergeStream over the same sources (MergeStream is this
// loop with an appending sink). The merge is deliberately sequential — an
// incrementally written output file has no partition boundaries to hand
// off to. A sink error aborts the merge and is returned; sources are left
// mid-run (the caller's cleanup owns them).
func MergeStreamSink(sources []Source, opt StreamOptions, sink Sink) (n int64, work int64, err error) {
	k := 1
	for k < len(sources) {
		k <<= 1
	}
	st := getTreeState(k)
	t := &streamTree{
		k:       k,
		loser:   st.loser[:k],
		srcs:    sources,
		heads:   st.heads[:len(sources)],
		fetched: st.fetched[:len(sources)],
		curH:    st.curH[:len(sources)],
		useLCP:  opt.LCP,
		state:   st,
	}
	clear(t.fetched)
	clear(t.curH)
	defer t.release()

	winner := t.initNode(1)
	first := true
	for {
		w := t.head(winner)
		if w == nil {
			break
		}
		lcp := int32(0)
		if opt.LCP && !first {
			lcp = t.curH[winner]
		}
		var sat uint64
		if opt.Sats {
			sat = t.srcs[winner].HeadSat()
		}
		if first {
			first = false
			if opt.OnFirstOutput != nil {
				opt.OnFirstOutput()
			}
		}
		if err := sink(w, lcp, sat); err != nil {
			return n, t.work, err
		}
		n++
		// Advance the winner's stream; the new head's LCP with the last
		// output is the stream's own LCP entry (see emit in merge.go).
		t.srcs[winner].Advance()
		t.fetched[winner] = false
		if t.useLCP {
			if t.head(winner) != nil {
				t.curH[winner] = t.srcs[winner].HeadLCP()
			} else {
				t.curH[winner] = 0
			}
		}
		// Replay the path from the winner's leaf to the root.
		node := (winner + t.k) / 2
		for node >= 1 {
			if t.less(t.loser[node], winner) {
				t.loser[node], winner = winner, t.loser[node]
			}
			node /= 2
		}
	}
	return n, t.work, nil
}
