// Package merge implements K-way merging of sorted string runs with loser
// trees (tournament trees): the classic atomic variant used by the FKmerge
// baseline, and the LCP-aware variant of Section II-B of the paper
// [Bingmann, Eberle, Sanders: Engineering Parallel String Sorting], which
// merges m strings with at most m·log K + ΔL character comparisons, where
// ΔL is the total increment of the LCP array entries — every character is
// inspected only once across the whole merge.
//
// One loser tree serves every merge: the sequential and partitioned merges
// over materialized runs (Merge, MergeLCP and their pool variants) and the
// sink merge over Sources (MergeStreamSink, MergeStream). It keeps each
// stream's head in flat per-stream arrays and, in LCP mode, also the head's
// distinguishing character head[curH] — the character right after the
// prefix the head shares with the last output — as in the character-caching
// LCP loser tree of the same paper. When two heads share equally long
// prefixes with the last output but their cached characters differ, the
// tree decides without touching string memory. It bills such a decision
// exactly 1 character, what the full comparison would have inspected (the
// mismatch is at the shared prefix), so the work counter the model time is
// computed from does not depend on the cache.
//
// Both variants optionally carry one word of satellite data per string
// through the merge and break ties by input run index, making the merge
// stable with respect to the run order (runs arrive ordered by source PE,
// so equal strings stay ordered by origin).
package merge

import (
	"dss/internal/strutil"
)

// Sequence is one sorted input run and the merged output format.
type Sequence struct {
	Strings [][]byte
	LCPs    []int32  // LCPs[i] = LCP(Strings[i-1], Strings[i]); LCPs[0] = 0
	Sats    []uint64 // optional satellite data, parallel to Strings
}

// Len returns the number of strings in the sequence.
func (s Sequence) Len() int { return len(s.Strings) }

// Merge performs a K-way merge with a plain (non-LCP) loser tree, the
// merging strategy of FKmerge and MS-simple. Input LCP arrays are ignored;
// the output has no LCP array. Returns the merged run and the number of
// characters inspected.
func Merge(seqs []Sequence) (Sequence, int64) {
	out, work, _ := MergePar(nil, seqs, -1)
	return out, work
}

// MergeLCP performs a K-way merge with the LCP loser tree: it consumes the
// runs' LCP arrays, inspects each character at most once, and produces the
// LCP array of the output.
func MergeLCP(seqs []Sequence) (Sequence, int64) {
	out, work, _ := MergeLCPPar(nil, seqs, -1)
	return out, work
}

// tree is the array-based loser tree over K streams (K padded to a power
// of two with exhausted streams). Internal nodes 1..k-1 store the loser
// stream of the comparison at that node; leaves are implicit. Each stream
// reads its run through a window (win) of decoded strings: the whole run
// for the eager merges, successive Source windows for the sink merge. The
// backing arrays come from the size-classed package pool (pool.go).
type tree struct {
	k     int   // number of leaves, power of two
	loser []int // loser[node] for node in [1,k)

	// Per-stream state, valid where !done.
	head [][]byte // current head, win[s].Strings[pos[s]]
	curH []int32  // LCP mode: LCP of head with the last output
	hc   []int32  // LCP mode: head[curH], or -1 when the head ends at curH
	done []bool   // exhausted (padding streams from the start)
	pos  []int    // head's index in win
	win  []Sequence
	srcs []Source // refill windows; nil for the eager merges

	useLCP bool
	work   int64
	winner int // current overall winner (valid after init/reseed)
	state  *treeState
}

// newTree builds a tree over n streams with pooled state, every stream
// exhausted. Callers seat the heads (setHead, or fill for Sources), then
// call init (billed) or reseed (unbilled) before emitting.
func newTree(n int, useLCP bool) *tree {
	k := 1
	for k < n {
		k <<= 1
	}
	st := getTreeState(k)
	t := &tree{
		k:      k,
		loser:  st.loser[:k],
		head:   st.head[:k],
		curH:   st.curH[:k],
		hc:     st.hc[:k],
		done:   st.done[:k],
		pos:    st.pos[:k],
		win:    st.win[:k],
		useLCP: useLCP,
		state:  st,
	}
	for s := range t.done {
		t.done[s] = true
	}
	return t
}

// release returns the tree's backing arrays to the package pool. The tree
// must not be used afterwards.
func (t *tree) release() {
	putTreeState(t.state)
	t.state = nil
}

// setHead makes string p of stream s's window its head, with curH = h and
// the cached character refreshed to match.
func (t *tree) setHead(s, p int, h int32) {
	str := t.win[s].Strings[p]
	t.pos[s] = p
	t.head[s] = str
	t.done[s] = false
	if t.useLCP {
		t.curH[s] = h
		t.hc[s] = charAt(str, h)
	}
}

// charAt returns s[i] as the cached distinguishing character, or -1 when s
// ends at i (a string that is a prefix of another sorts first).
func charAt(s []byte, i int32) int32 {
	if int(i) < len(s) {
		return int32(s[i])
	}
	return -1
}

// fill installs stream s's next Source window and reports whether the run
// had one; an empty window (or no Source) leaves the stream exhausted.
func (t *tree) fill(s int) bool {
	t.win[s] = Sequence{}
	if t.srcs != nil {
		if w := t.srcs[s].Next(); w.Len() > 0 {
			t.win[s] = w
			return true
		}
	}
	t.done[s] = true
	return false
}

// sat returns the satellite word of stream s's head (0 without Sats).
func (t *tree) sat(s int) uint64 {
	if sats := t.win[s].Sats; sats != nil {
		return sats[t.pos[s]]
	}
	return 0
}

// less reports whether stream a's head precedes stream b's. Exhausted
// streams are +∞ and ties break toward the lower stream index.
func (t *tree) less(a, b int) bool {
	if t.done[a] {
		return t.done[b] && a < b
	}
	if t.done[b] {
		return true
	}
	if !t.useLCP {
		cmp, lcp := strutil.CompareLCP(t.head[a], t.head[b], 0)
		t.work += int64(lcp + 1)
		if cmp == 0 {
			return a < b
		}
		return cmp < 0
	}
	// LCP-compare rule: both heads are ≥ the last output w and curH[s] =
	// LCP(head(s), w), so the head sharing more with w is smaller, and
	// LCP(a, b) is the smaller curH — already the loser's value.
	ha, hb := t.curH[a], t.curH[b]
	if ha != hb {
		return ha > hb
	}
	// Equal curH: the heads agree up to ha and differ at the first index
	// where their characters do. A comparison from ha inspects lcp−ha+1
	// characters; differing cached characters put the mismatch at ha, so
	// that is 1 and LCP(a, b) = ha leaves both curH values as they are.
	t.work++
	ca, cb := t.hc[a], t.hc[b]
	if ca != cb {
		return ca < cb
	}
	if ca < 0 {
		return a < b // equal strings
	}
	return t.tie(a, b, ha)
}

// tie compares two heads whose first ha+1 characters agree, bills the
// characters beyond the one less already billed, and demotes the loser:
// its curH becomes LCP(a, b), whose character the comparison just loaded.
func (t *tree) tie(a, b int, ha int32) bool {
	cmp, lcp := strutil.CompareLCP(t.head[a], t.head[b], int(ha)+1)
	t.work += int64(lcp - int(ha))
	loser := a
	if cmp < 0 || (cmp == 0 && a < b) {
		loser = b
	}
	t.curH[loser] = int32(lcp)
	t.hc[loser] = charAt(t.head[loser], int32(lcp))
	return loser == b
}

// initNode plays the initial tournament of the subtree rooted at node and
// returns its winner stream.
func (t *tree) initNode(node int) int {
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

// init plays the initial tournament, billing its comparisons to the work
// counter — the sequential merge's (and partition 0's) tree build.
func (t *tree) init() {
	t.winner = t.initNode(1)
}

// reseed rebuilds the tree state a sequential merge would have at the
// current heads, WITHOUT billing any work — the entry point of partitions
// j ≥ 1 of the parallel merge. wPrev is the output element immediately
// preceding this partition's range (the maximal last-selected element
// under the merge's (string, run) tie order).
//
// Why this reproduces the sequential state exactly: a loser tree over a
// strict total order is a pure function of the current heads — at every
// node the passed-up winner is the subtree minimum and loser[node] is the
// other sub-winner, regardless of the insertion history. For the LCP tree
// the canonical curH values are LCP(head, w) for every stream whose head
// a comparison has not yet demoted, and LCP(loser, winner-at-its-node) for
// the demoted ones; seeding curH[s] = LCP(head(s), wPrev) (with its cached
// character) and replaying the tournament restores precisely that (less's
// side effects install the losers' values). With identical state, the
// subsequent emit replays the sequential merge's comparison sequence
// character for character, so the BILLED work of all partitions sums to
// the sequential total.
func (t *tree) reseed(wPrev []byte) {
	if t.useLCP {
		for s := range t.head {
			if !t.done[s] {
				h := int32(strutil.LCP(t.head[s], wPrev))
				t.curH[s] = h
				t.hc[s] = charAt(t.head[s], h)
			}
		}
	}
	// Play the tournament with the work counter parked: the comparisons
	// (and their curH side effects) happen, the characters they inspect are
	// bookkeeping of the partitioned schedule, not merge work — the
	// sequential merge never performs them.
	saved := t.work
	t.winner = t.initNode(1)
	t.work = saved
}

// advance consumes the winner's head and replays the path from its leaf to
// the root. The new head's LCP with the last output is exactly the
// stream's own LCP entry, because the last output was the previous string
// of that stream (for the first string of a later window, LCPs[0] is the
// LCP with the previous window's last string).
func (t *tree) advance() {
	w := t.winner
	p := t.pos[w] + 1
	if p < len(t.win[w].Strings) {
		var h int32
		if t.useLCP {
			h = t.win[w].LCPs[p]
		}
		t.setHead(w, p, h)
	} else if t.fill(w) {
		var h int32
		if t.useLCP {
			h = t.win[w].LCPs[0]
		}
		t.setHead(w, 0, h)
	}
	for node := (w + t.k) / 2; node >= 1; node /= 2 {
		if l := t.loser[node]; t.less(l, w) {
			t.loser[node], w = w, l
		}
	}
	t.winner = w
}

// emit produces the next n merged outputs with indexed writes into the
// caller's (sub)slices: strings must have length ≥ n; lcps and sats may be
// nil when the caller wants no LCP/satellite output.
func (t *tree) emit(n int, strings [][]byte, lcps []int32, sats []uint64) {
	for i := 0; i < n; i++ {
		w := t.winner
		strings[i] = t.head[w]
		if lcps != nil {
			lcps[i] = t.curH[w]
		}
		if sats != nil {
			sats[i] = t.sat(w)
		}
		t.advance()
	}
}

func appendSats(dst []uint64, s Sequence, n int) []uint64 {
	if s.Sats != nil {
		return append(dst, s.Sats[:n]...)
	}
	for i := 0; i < n; i++ {
		dst = append(dst, 0)
	}
	return dst
}
