// Merging over Sources: the loser tree of merge.go fed window by window
// from runs that may still be arriving. MergeStreamSink (sink.go) is the
// Step-4 front-end of the budget pipeline's chunked exchange seam — the
// tree starts as soon as every run can produce its FIRST window and from
// then on blocks only when a stream has consumed its window and the next
// has not been decoded yet (the blocking Next call is where the caller
// drains more frames into its run readers or pages spilled bytes back in).
// MergeStream is the same loop collecting its output into a Sequence.
//
// Work-count identity: the comparison sequence of a loser tree is a pure
// function of the head sequences, the per-head LCP values and the stream
// count. Where a run's windows are cut does not change either, so
// MergeStream reports the character work of Merge/MergeLCP on the same
// runs, bit for bit — asserted by the differential tests.
package merge

// Source is a pull-based sorted string run, handed to the merge as a
// sequence of windows. Implementations are typically backed by an
// incremental run reader over a partially received exchange payload (see
// core's budget pipeline); SliceSource adapts a materialized Sequence as
// one window.
//
// Window contract: Next returns the run's next window of strings that are
// already decoded — Strings, LCPs (required by LCP merges; LCPs[0] is the
// LCP with the run's previous string, 0 at the run's start) and optionally
// Sats — blocking until at least one string is available. An empty window
// reports the run exhausted, and the merge does not call Next again. The
// merge calls Next only once it has consumed the previous window, and a
// window's strings must stay valid and byte-identical until the source's
// next Next call; the sink merge copies nothing it needs longer. A merge
// that keeps its output (MergeStream) aliases the strings for good, so its
// sources must never recycle them, like SliceSource and wire.RunReader's
// never-overwritten arenas. Strings may be empty or nil: exhaustion is only
// ever the empty window.
type Source interface {
	Next() Sequence
}

// StreamOptions configure MergeStream.
type StreamOptions struct {
	// LCP selects the LCP-aware loser tree (and LCP output), like MergeLCP
	// versus Merge.
	LCP bool
	// Sats carries one satellite word per string through the merge. Unlike
	// the eager path, which sniffs Sats from the input runs, streaming
	// callers declare it up front (the runs may not have arrived yet).
	Sats bool
	// OnFirstOutput, if set, is invoked exactly once, immediately before
	// the tree emits its first merged string — the merge-start milestone
	// the overlap accounting records. Not invoked for an empty merge.
	OnFirstOutput func()
}

// MergeStream merges the sources with a loser tree, pulling windows on
// demand, and returns the merged run and the number of characters
// inspected. The output is identical (strings, LCPs, satellites, work) to
// Merge/MergeLCP over the fully materialized runs, down to the empty
// Sequence of an empty merge. It is MergeStreamSink with a sink that
// appends to the returned Sequence.
func MergeStream(sources []Source, opt StreamOptions) (Sequence, int64) {
	out := Sequence{Strings: make([][]byte, 0)}
	if opt.LCP {
		out.LCPs = make([]int32, 0)
	}
	if opt.Sats {
		out.Sats = make([]uint64, 0)
	}
	n, work, _ := MergeStreamSink(sources, opt, func(s []byte, lcp int32, sat uint64) error {
		out.Strings = append(out.Strings, s)
		if opt.LCP {
			out.LCPs = append(out.LCPs, lcp)
		}
		if opt.Sats {
			out.Sats = append(out.Sats, sat)
		}
		return nil
	})
	if n == 0 {
		return Sequence{}, work
	}
	return out, work
}

// SliceSource adapts a fully materialized Sequence to the Source
// interface as a single window: the eager inputs replayed through the
// streaming front-end, used by the differential tests and the benchmark's
// merge ledger.
type SliceSource struct {
	Seq  Sequence
	done bool
}

// Next returns the whole sequence once, then the empty window.
func (s *SliceSource) Next() Sequence {
	if s.done {
		return Sequence{}
	}
	s.done = true
	return s.Seq
}
