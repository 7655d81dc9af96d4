package merge

import (
	"bytes"

	"dss/internal/par"
	"dss/internal/partition"
)

// DefaultParMin is the minimum number of strings below which the
// partitioned parallel merge is not worth its selection overhead and the
// merge runs sequentially even on a wide pool.
const DefaultParMin = 2048

// resolveParMin maps the configuration convention (0 = default, negative =
// disabled) to an effective threshold.
func resolveParMin(parMin int) int {
	if parMin == 0 {
		return DefaultParMin
	}
	return parMin
}

// Hooks are optional trace callbacks of the partitioned merges, threaded
// down from the comm layer's recorder. The zero value is fully disabled
// and costs nothing; the callbacks never influence what is merged.
type Hooks struct {
	// Obs observes each pool worker's busy span of the partitioned phase
	// (nil = unobserved, see par.Observer).
	Obs par.Observer
	// OnPartition is invoked once after multisequence selection with the
	// output boundaries: bounds[j]..bounds[j+1] is partition j's output
	// slot. The partition seams of the timeline come from here.
	OnPartition func(bounds []int)
}

// MergePar is Merge on a work pool: the runs are split into disjoint,
// globally ordered subranges by multisequence selection and each subrange
// is merged by an independent plain loser tree. Output and the work count
// are byte-identical to the sequential merge at every pool width (a nil or
// width-1 pool, or fewer than parMin strings, IS the sequential path).
// Returns the merged sequence, the character work, and the pool busy-ns.
func MergePar(pool *par.Pool, seqs []Sequence, parMin int) (Sequence, int64, int64) {
	return mergeSeqs(pool, seqs, false, parMin, Hooks{})
}

// MergeLCPPar is MergeLCP on a work pool; see MergePar. Seam LCPs at
// partition boundaries are recomputed against the predecessor element, so
// the output LCP array matches the sequential merge exactly.
func MergeLCPPar(pool *par.Pool, seqs []Sequence, parMin int) (Sequence, int64, int64) {
	return mergeSeqs(pool, seqs, true, parMin, Hooks{})
}

// MergeParHooked / MergeLCPParHooked are the traced variants: identical
// merges with the hooks reporting worker spans and partition seams.
func MergeParHooked(pool *par.Pool, seqs []Sequence, parMin int, h Hooks) (Sequence, int64, int64) {
	return mergeSeqs(pool, seqs, false, parMin, h)
}

// MergeLCPParHooked is MergeLCPPar with trace hooks; see MergeParHooked.
func MergeLCPParHooked(pool *par.Pool, seqs []Sequence, parMin int, h Hooks) (Sequence, int64, int64) {
	return mergeSeqs(pool, seqs, true, parMin, h)
}

func mergeSeqs(pool *par.Pool, seqs []Sequence, useLCP bool, parMin int, h Hooks) (Sequence, int64, int64) {
	total := 0
	streams := 0
	last := -1
	anySats := false
	for i, s := range seqs {
		if useLCP && s.Len() > 0 && len(s.LCPs) != s.Len() {
			panic("merge: sequence missing LCP array")
		}
		if s.Sats != nil {
			if len(s.Sats) != s.Len() {
				panic("merge: satellite array length mismatch")
			}
			anySats = true
		}
		total += s.Len()
		if s.Len() > 0 {
			streams++
			last = i
		}
	}

	var out Sequence
	if total == 0 {
		return out, 0, 0
	}
	if streams == 1 {
		// Single non-empty run: pass through (the sequential fast path).
		s := seqs[last]
		out.Strings = append(out.Strings, s.Strings...)
		if useLCP {
			out.LCPs = append(out.LCPs, s.LCPs...)
			out.LCPs[0] = 0
		}
		if anySats {
			out.Sats = appendSats(out.Sats, s, s.Len())
		}
		return out, 0, 0
	}

	out.Strings = make([][]byte, total)
	if useLCP {
		out.LCPs = make([]int32, total)
	}
	if anySats {
		out.Sats = make([]uint64, total)
	}

	parts := 1
	if pool != nil && !pool.Sequential() {
		if min := resolveParMin(parMin); min >= 0 && total >= min {
			if parts = pool.Cores(); parts > total {
				parts = total
			}
		}
	}

	if parts <= 1 {
		t := seatTree(seqs, nil, useLCP)
		t.init()
		t.emit(total, out.Strings, out.LCPs, out.Sats)
		work := t.work
		t.release()
		if useLCP {
			out.LCPs[0] = 0
		}
		return out, work, 0
	}

	// Partition: exact global boundaries over the runs (unbilled — the
	// sequential merge never performs these comparisons).
	runs := make([][][]byte, len(seqs))
	for i, s := range seqs {
		runs[i] = s.Strings
	}
	cuts := partition.SplitPoints(runs, nil, parts)
	bounds := make([]int, parts+1)
	for j := 1; j <= parts; j++ {
		n := 0
		for q := range runs {
			n += cuts[j][q]
		}
		bounds[j] = n
	}
	if h.OnPartition != nil {
		h.OnPartition(bounds)
	}

	works := make([]int64, parts)
	busy := pool.ForEachObs(parts, func(j int) {
		lo, hi := bounds[j], bounds[j+1]
		if lo == hi {
			return
		}
		var lcps []int32
		if useLCP {
			lcps = out.LCPs[lo:hi]
		}
		var sats []uint64
		if anySats {
			sats = out.Sats[lo:hi]
		}
		t := seatTree(seqs, cuts[j], useLCP)
		if j == 0 {
			t.init() // billed: this IS the sequential merge's tree build
		} else {
			t.reseed(predecessor(seqs, cuts[j]))
		}
		t.emit(hi-lo, out.Strings[lo:hi], lcps, sats)
		works[j] = t.work
		t.release()
	}, h.Obs)

	var work int64
	for _, w := range works {
		work += w
	}
	if useLCP {
		out.LCPs[0] = 0
	}
	return out, work, busy
}

// seatTree builds a tree whose streams read the runs as single windows,
// stream q starting at string start[q] (at 0 for a nil start).
func seatTree(seqs []Sequence, start []int, useLCP bool) *tree {
	t := newTree(len(seqs), useLCP)
	for q, s := range seqs {
		t.win[q] = s
		p := 0
		if start != nil {
			p = start[q]
		}
		if p < s.Len() {
			t.setHead(q, p, 0)
		}
	}
	return t
}

// predecessor returns the output element immediately before the partition
// starting at cuts: the maximal last-selected element, where equal strings
// compare by run index (higher run wins, matching the (string, run) order
// in which the merge emits them). Only called for partitions with a
// non-empty prefix, so at least one cut is positive.
func predecessor(seqs []Sequence, cuts []int) []byte {
	var w []byte
	found := false
	for q := range seqs {
		if cuts[q] == 0 {
			continue
		}
		cand := seqs[q].Strings[cuts[q]-1]
		if !found || bytes.Compare(cand, w) >= 0 {
			w, found = cand, true
		}
	}
	return w
}
