// Streaming K-way merge: the same loser trees as merge.go, pulled over
// Sources that may still be arriving. MergeStreamSink (sink.go) is the
// Step-4 front-end of the budget pipeline's chunked exchange seam — the
// tree starts as soon as every run can produce its FIRST head and from
// then on blocks only when the one head it needs next has not been
// decoded yet (the blocking Head call is where the caller drains more
// frames into its run readers or pages spilled bytes back in).
// MergeStream is the same loop collecting its output into a Sequence.
//
// Work-count identity: the comparison sequence of a loser tree is a pure
// function of the head sequences, the per-head LCP values and the stream
// count. MergeStream presents exactly the strings and LCPs the eager path
// presents, pads to the same power-of-two tree and replays the same paths,
// so the character work it reports is bit-identical to Merge/MergeLCP on
// the same runs — asserted by the differential tests in stream_test.go.
package merge

// Source is a pull-based sorted string run. Implementations are typically
// backed by an incremental run reader over a partially received exchange
// payload (see core's budget pipeline); SliceSource adapts a materialized
// Sequence.
//
// Aliasing contract: the slice returned by Head must remain valid and
// byte-identical until the caller is done with the merged output — the
// loser tree caches heads across comparisons and the output Sequence
// aliases them, exactly like the eager merge aliases its input runs. In
// particular a Source must never hand out sub-slices of transport buffers
// that are recycled afterwards; decode into stable, append-only storage
// (wire.RunReader's arenas obey this). Violations corrupt the merge output
// silently, which is why the contract is pinned by dedicated tests on both
// the reader and the merge side.
type Source interface {
	// Head returns the run's current head, blocking until it is available;
	// ok=false reports the run exhausted. Repeated calls without Advance
	// return the same head. A live head must be NON-NIL — an empty string
	// is an empty non-nil slice, as the wire decoders produce — because
	// nil is the loser tree's +∞ exhausted sentinel: a nil head with
	// ok=true would silently drop the rest of the run.
	Head() (s []byte, ok bool)
	// HeadLCP returns the LCP of the current head with the run's previous
	// string (0 at the first string). Only called after a successful Head.
	HeadLCP() int32
	// HeadSat returns the current head's satellite word. Only called after
	// a successful Head, and only when the merge runs with Sats.
	HeadSat() uint64
	// Advance consumes the current head.
	Advance()
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

// MergeStream merges the sources with a loser tree, pulling heads on
// demand, and returns the merged run and the number of characters
// inspected. The output is identical (strings, LCPs, satellites, work) to
// Merge/MergeLCP over the fully materialized runs. It is MergeStreamSink
// with a sink that appends to the returned Sequence.
func MergeStream(sources []Source, opt StreamOptions) (Sequence, int64) {
	out := Sequence{Strings: make([][]byte, 0)}
	if opt.LCP {
		out.LCPs = make([]int32, 0)
	}
	if opt.Sats {
		out.Sats = make([]uint64, 0)
	}
	_, work, _ := MergeStreamSink(sources, opt, func(s []byte, lcp int32, sat uint64) error {
		out.Strings = append(out.Strings, s)
		if opt.LCP {
			out.LCPs = append(out.LCPs, lcp)
		}
		if opt.Sats {
			out.Sats = append(out.Sats, sat)
		}
		return nil
	})
	return out, work
}

// streamTree is the loser tree of merge.go with the head cache pulled from
// Sources instead of indexed slices. The comparison logic is shared with
// the eager tree through the lessHeads helpers so the two cannot drift,
// and the backing arrays come from the same size-classed pool.
type streamTree struct {
	k       int
	loser   []int
	srcs    []Source
	heads   [][]byte // cached current heads; valid where fetched
	fetched []bool
	curH    []int32
	useLCP  bool
	work    int64
	state   *treeState
}

// release returns the tree's backing arrays to the package pool.
func (t *streamTree) release() {
	putTreeState(t.state)
	t.state = nil
}

// head returns the cached head of stream s, pulling (and possibly
// blocking on) the source the first time after an Advance. nil is the +∞
// sentinel of an exhausted or padding stream.
func (t *streamTree) head(s int) []byte {
	if s >= len(t.srcs) {
		return nil
	}
	if !t.fetched[s] {
		h, ok := t.srcs[s].Head()
		if !ok {
			h = nil
		}
		t.heads[s] = h
		t.fetched[s] = true
	}
	return t.heads[s]
}

func (t *streamTree) less(a, b int) bool {
	if t.useLCP {
		return lessHeadsLCP(t.head(a), t.head(b), a, b, t.curH, &t.work)
	}
	return lessHeadsPlain(t.head(a), t.head(b), a, b, &t.work)
}

// initNode plays the initial tournament of the subtree rooted at node and
// returns its winner stream (identical to tree.initNode).
func (t *streamTree) initNode(node int) int {
	if node >= t.k {
		return node - t.k
	}
	l := t.initNode(2 * node)
	r := t.initNode(2*node + 1)
	if t.less(l, r) {
		t.loser[node] = r
		return l
	}
	t.loser[node] = l
	return r
}

// SliceSource adapts a fully materialized Sequence to the Source
// interface: the eager inputs replayed through the streaming front-end,
// used by the differential tests and the benchmark's merge ledger.
type SliceSource struct {
	Seq Sequence
	pos int
}

// Head returns the current head of the sequence.
func (s *SliceSource) Head() ([]byte, bool) {
	if s.pos >= s.Seq.Len() {
		return nil, false
	}
	return s.Seq.Strings[s.pos], true
}

// HeadLCP returns the current head's LCP entry.
func (s *SliceSource) HeadLCP() int32 {
	if s.Seq.LCPs == nil {
		return 0
	}
	return s.Seq.LCPs[s.pos]
}

// HeadSat returns the current head's satellite word.
func (s *SliceSource) HeadSat() uint64 {
	if s.Seq.Sats == nil {
		return 0
	}
	return s.Seq.Sats[s.pos]
}

// Advance consumes the current head.
func (s *SliceSource) Advance() { s.pos++ }
