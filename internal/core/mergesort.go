package core

import (
	"dss/internal/comm"
	"dss/internal/merge"
	"dss/internal/par"
	"dss/internal/partition"
	"dss/internal/stats"
	"dss/internal/strsort"
	"dss/internal/wire"
)

// MSOptions configure Algorithm MS (Section V). The zero value is the
// MS-simple configuration; LCP: true is the configuration the paper
// benchmarks as "MS".
type MSOptions struct {
	// LCP enables both LCP optimizations of Section V: the Step-3 exchange
	// sends, per string, only the suffix beyond the LCP with the previous
	// string, and Step 4 merges with the LCP-aware loser tree (producing
	// the output LCP array). Off, full strings travel and a plain loser
	// tree merges them (MS-simple).
	LCP bool
	// Sampling selects string- or character-based splitter sampling.
	Sampling partition.Sampling
	// V is the oversampling factor (samples per PE); default 2p−1 (v = Θ(p),
	// aligned with the bucket quantiles).
	V int
	// TieBreak partitions by (string, origin) pairs so duplicated strings
	// spread evenly over the PEs instead of piling onto one bucket — the
	// Section VIII extension for duplicate-heavy inputs.
	TieBreak bool
	// RandomSampling draws random instead of regularly spaced samples
	// (Section VIII).
	RandomSampling bool
	// GroupID is the base communicator namespace (the call consumes
	// [GroupID, GroupID+16)).
	GroupID int
	// Seed drives hQuick's randomness during sample sorting.
	Seed uint64
	Seam
}

// MergeSort runs distributed string merge sort (Algorithm MS, Figure 1):
//
//  1. sort locally, producing the local LCP array;
//  2. determine p−1 splitters by regular sampling and distributed sample
//     sorting with hQuick;
//  3. all-to-all exchange of the buckets, optionally LCP-compressed;
//  4. multiway merge of the p received runs, LCP-aware if configured.
//
// Every PE calls collectively with its local strings; PE i's result holds
// the i-th fragment of the global sorted order.
func MergeSort(c *comm.Comm, ss [][]byte, opt MSOptions) Result {
	p := c.P()
	if opt.V <= 0 {
		// Theory (Theorems 2–4) wants v = Θ(p). Choosing v ≡ −1 (mod p)
		// aligns the local sample quantiles j/(v+1) with the bucket
		// boundaries i/p, which brings the bucket bound of Theorem 2 from
		// 1+p/v down to ~1.0 on evenly distributed inputs.
		opt.V = 2*p - 1
		if opt.V < 15 {
			opt.V = 15
		}
	}
	local := cloneSpine(ss)

	// Step 1: local sort with LCP array, spread over the PE's work pool
	// (permutation, LCPs and work total are pool-width-independent; see
	// strsort's parallel front-ends). Radix scratch is drawn from the
	// size-classed package pools.
	c.SetPhase(stats.PhaseLocalSort)
	var lcp []int32
	var work, busy int64
	if opt.LCP {
		lcp, work, busy = strsort.ParallelSortLCP(c.Pool(), local, nil, nil)
	} else {
		work, busy = strsort.ParallelSort(c.Pool(), local, nil)
	}
	c.AddWork(work)
	c.AddCPU(busy)
	if p == 1 {
		c.SetPhase(stats.PhaseOther)
		if opt.Spill != nil {
			return Result{Drained: drainSorted(opt.Out, local, lcp, nil)}
		}
		return Result{Strings: local, LCPs: lcp}
	}

	// Step 2: splitter selection.
	splitters := partition.SelectSplitters(c, local, partition.Options{
		V:              opt.V,
		Sampling:       opt.Sampling,
		TieBreak:       opt.TieBreak,
		RandomSampling: opt.RandomSampling,
		Seed:           opt.Seed,
		GroupID:        opt.GroupID + 1,
		DistSort:       sampleSorter(opt.Seed, opt.BlockingExchange),
	})
	var off []int
	if opt.TieBreak {
		off = partition.BucketsTie(local, c.Rank(), splitters)
	} else {
		off = partition.Buckets(local, splitters)
	}

	// Step 3: all-to-all bucket exchange. All p outgoing parts are encoded
	// into one exactly pre-sized arena (Send copies payloads, so the parts
	// may share backing storage): O(1) buffer allocations per PE instead of
	// one per destination, with zero growth reallocations. The LCP run of a
	// bucket is passed as a direct sub-slice of the local LCP array — the
	// encoders ignore the boundary entry lcps[lo], which belongs to a
	// string that stays on this PE.
	c.SetPhase(stats.PhaseExchange)
	g := comm.NewGroup(c, allRanks(p), opt.GroupID+8)
	sizes, sbusy := par.MapOrdered(c.Pool(), p, func(dst int) int {
		lo, hi := off[dst], off[dst+1]
		if opt.LCP {
			return wire.StringsLCPSize(local[lo:hi], lcpSub(lcp, lo, hi))
		}
		return wire.StringsSize(local[lo:hi])
	})
	c.AddCPU(sbusy)
	enc := func(dst int, buf []byte) []byte {
		lo, hi := off[dst], off[dst+1]
		if opt.LCP {
			return wire.AppendStringsLCP(buf, local[lo:hi], lcpSub(lcp, lo, hi))
		}
		return wire.AppendStrings(buf, local[lo:hi])
	}
	if opt.Spill != nil {
		// Bounded-memory pipeline: the chunked exchange with spillable run
		// sources and the sink-mode merge draining straight into the
		// sorted-run writer.
		format := wire.RunStrings
		if opt.LCP {
			format = wire.RunStringsLCP
		}
		parts := encodeParts(c, sizes, enc)
		st := spillRuns(c, g, parts, opt.Seam, format, false)
		n, mw := sinkMerge(c, st, opt.LCP, false, opt.Out)
		c.AddWork(mw)
		c.SetPhase(stats.PhaseOther)
		return Result{Drained: n}
	}
	// In-RAM seam: encode each bucket on the pool, posting it as its
	// encoder finishes, then decode each incoming run as soon as it lands
	// WHOLE (the arena decoders copy everything out of the message); the
	// phase switches to merging while the stragglers are still in flight.
	runs := make([]merge.Sequence, p)
	exchangeEncoded(c, g, sizes, enc, opt.BlockingExchange, stats.PhaseMerge, func(src int, msg []byte) {
		if opt.LCP {
			rs, rl, err := wire.DecodeStringsLCP(msg)
			if err != nil {
				panic("mergesort: corrupt compressed run: " + err.Error())
			}
			runs[src] = merge.Sequence{Strings: rs, LCPs: rl}
			return
		}
		rs, err := wire.DecodeStrings(msg)
		if err != nil {
			panic("mergesort: corrupt run: " + err.Error())
		}
		runs[src] = merge.Sequence{Strings: rs}
	})

	// Step 4: multiway merge of the fully decoded runs, partitioned across
	// the pool by multisequence selection (width-independent output and
	// work by the deterministic merge-back contract).
	var out merge.Sequence
	var mwork, mbusy int64
	if opt.LCP {
		out, mwork, mbusy = merge.MergeLCPParHooked(c.Pool(), runs, opt.ParMergeMin, mergeHooks(c))
	} else {
		out, mwork, mbusy = merge.MergeParHooked(c.Pool(), runs, opt.ParMergeMin, mergeHooks(c))
	}
	c.AddWork(mwork)
	c.AddCPU(mbusy)
	c.SetPhase(stats.PhaseOther)
	return Result{Strings: out.Strings, LCPs: out.LCPs}
}

// lcpSub is the allocation-free view of a bucket's LCP run: the boundary
// entry lcp[lo] belongs to a string that stays on this PE, and every
// encoder of a run ignores (or re-derives as zero) its first entry, so no
// zeroed copy is needed.
func lcpSub(lcp []int32, lo, hi int) []int32 {
	if lo >= hi {
		return nil
	}
	return lcp[lo:hi]
}
