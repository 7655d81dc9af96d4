package merge

import "dss/internal/strutil"

// The two loser trees the character-caching tree replaced, kept verbatim
// apart from names and pooling: oracleTree ran the eager and partitioned
// merges over slices, oracleStreamTree the sink merge over per-string
// pull sources. Both treat a nil head as the +∞ exhausted sentinel, so
// the differential tests feed them runs whose empty strings are non-nil.
// The tests pin the new tree to these on output strings, LCPs, satellites
// and billed character work.

// oracleTree is the array-based loser tree over K streams (K padded to a
// power of two with exhausted sentinel streams). Internal nodes 1..k-1
// store the loser stream of the comparison at that node; leaves are
// implicit.
type oracleTree struct {
	k      int   // number of leaves, power of two
	loser  []int // loser[node] for node in [1,k)
	pos    []int // per-stream read position
	seqs   []Sequence
	curH   []int32 // per-stream LCP of current head with the last output
	useLCP bool
	work   int64
	winner int // current overall winner (valid after init)
}

func newOracleTree(seqs []Sequence, useLCP bool) *oracleTree {
	k := 1
	for k < len(seqs) {
		k <<= 1
	}
	return &oracleTree{
		k:      k,
		loser:  make([]int, k),
		pos:    make([]int, len(seqs)),
		seqs:   seqs,
		curH:   make([]int32, len(seqs)),
		useLCP: useLCP,
	}
}

func (t *oracleTree) head(s int) []byte {
	if s >= len(t.seqs) || t.pos[s] >= t.seqs[s].Len() {
		return nil // exhausted: +∞ sentinel
	}
	return t.seqs[s].Strings[t.pos[s]]
}

// oracleLessHeadsPlain compares stream heads with full comparisons; nil
// is +∞ and ties break toward the lower stream index.
func oracleLessHeadsPlain(sa, sb []byte, a, b int, work *int64) bool {
	switch {
	case sa == nil && sb == nil:
		return a < b
	case sa == nil:
		return false
	case sb == nil:
		return true
	}
	cmp, lcp := strutil.CompareLCP(sa, sb, 0)
	*work += int64(lcp + 1)
	if cmp == 0 {
		return a < b
	}
	return cmp < 0
}

// oracleLessHeadsLCP compares stream heads using the LCP-compare rule:
// if the curH values differ the head with the longer shared prefix is
// smaller; on equality it compares from the shared prefix and updates the
// loser's curH to LCP(a, b).
func oracleLessHeadsLCP(sa, sb []byte, a, b int, curH []int32, work *int64) bool {
	switch {
	case sa == nil && sb == nil:
		return a < b
	case sa == nil:
		return false
	case sb == nil:
		return true
	}
	ha, hb := curH[a], curH[b]
	switch {
	case ha > hb:
		return true
	case ha < hb:
		return false
	default:
		cmp, lcp := strutil.CompareLCP(sa, sb, int(ha))
		*work += int64(lcp - int(ha) + 1)
		if cmp < 0 || (cmp == 0 && a < b) {
			curH[b] = int32(lcp) // b loses to a
			return true
		}
		curH[a] = int32(lcp) // a loses to b
		return false
	}
}

func (t *oracleTree) less(a, b int) bool {
	if t.useLCP {
		return oracleLessHeadsLCP(t.head(a), t.head(b), a, b, t.curH, &t.work)
	}
	return oracleLessHeadsPlain(t.head(a), t.head(b), a, b, &t.work)
}

func (t *oracleTree) initNode(node int) int {
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

func (t *oracleTree) emit(n int, strings [][]byte, lcps []int32, sats []uint64) {
	w := t.winner
	for i := 0; i < n; i++ {
		strings[i] = t.head(w)
		if lcps != nil {
			lcps[i] = t.curH[w]
		}
		if sats != nil {
			var v uint64
			if t.seqs[w].Sats != nil {
				v = t.seqs[w].Sats[t.pos[w]]
			}
			sats[i] = v
		}
		t.pos[w]++
		if t.useLCP {
			if t.pos[w] < t.seqs[w].Len() {
				t.curH[w] = t.seqs[w].LCPs[t.pos[w]]
			} else {
				t.curH[w] = 0
			}
		}
		node := (w + t.k) / 2
		for node >= 1 {
			if t.less(t.loser[node], w) {
				t.loser[node], w = w, t.loser[node]
			}
			node /= 2
		}
	}
	t.winner = w
}

// oracleMerge is the sequential Merge/MergeLCP of the oracle tree: the
// output carries LCPs in LCP mode and satellites when any run has them.
func oracleMerge(seqs []Sequence, useLCP bool) (Sequence, int64) {
	total := 0
	anySats := false
	for _, s := range seqs {
		total += s.Len()
		anySats = anySats || s.Sats != nil
	}
	var out Sequence
	if total == 0 {
		return out, 0
	}
	out.Strings = make([][]byte, total)
	if useLCP {
		out.LCPs = make([]int32, total)
	}
	if anySats {
		out.Sats = make([]uint64, total)
	}
	t := newOracleTree(seqs, useLCP)
	t.winner = t.initNode(1)
	t.emit(total, out.Strings, out.LCPs, out.Sats)
	if useLCP {
		out.LCPs[0] = 0
	}
	return out, t.work
}

// oracleSource is the per-string pull interface the stream oracle ran
// over; oracleSliceSource adapts a Sequence to it.
type oracleSource interface {
	Head() (s []byte, ok bool)
	HeadLCP() int32
	HeadSat() uint64
	Advance()
}

type oracleSliceSource struct {
	Seq Sequence
	pos int
}

func (s *oracleSliceSource) Head() ([]byte, bool) {
	if s.pos >= s.Seq.Len() {
		return nil, false
	}
	return s.Seq.Strings[s.pos], true
}

func (s *oracleSliceSource) HeadLCP() int32 {
	if s.Seq.LCPs == nil {
		return 0
	}
	return s.Seq.LCPs[s.pos]
}

func (s *oracleSliceSource) HeadSat() uint64 {
	if s.Seq.Sats == nil {
		return 0
	}
	return s.Seq.Sats[s.pos]
}

func (s *oracleSliceSource) Advance() { s.pos++ }

// oracleStreamTree is the loser tree with the head cache pulled from
// oracleSources instead of indexed slices.
type oracleStreamTree struct {
	k       int
	loser   []int
	srcs    []oracleSource
	heads   [][]byte // cached current heads; valid where fetched
	fetched []bool
	curH    []int32
	useLCP  bool
	work    int64
}

func (t *oracleStreamTree) head(s int) []byte {
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

func (t *oracleStreamTree) less(a, b int) bool {
	if t.useLCP {
		return oracleLessHeadsLCP(t.head(a), t.head(b), a, b, t.curH, &t.work)
	}
	return oracleLessHeadsPlain(t.head(a), t.head(b), a, b, &t.work)
}

func (t *oracleStreamTree) initNode(node int) int {
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

// oracleMergeStreamSink is the streaming sink merge over the oracle tree.
func oracleMergeStreamSink(sources []oracleSource, opt StreamOptions, sink Sink) (n int64, work int64, err error) {
	k := 1
	for k < len(sources) {
		k <<= 1
	}
	t := &oracleStreamTree{
		k:       k,
		loser:   make([]int, k),
		srcs:    sources,
		heads:   make([][]byte, len(sources)),
		fetched: make([]bool, len(sources)),
		curH:    make([]int32, len(sources)),
		useLCP:  opt.LCP,
	}
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
		first = false
		if err := sink(w, lcp, sat); err != nil {
			return n, t.work, err
		}
		n++
		t.srcs[winner].Advance()
		t.fetched[winner] = false
		if t.useLCP {
			if t.head(winner) != nil {
				t.curH[winner] = t.srcs[winner].HeadLCP()
			} else {
				t.curH[winner] = 0
			}
		}
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
