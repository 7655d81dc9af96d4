// Parallel Step-1 sorting: multi-core front-ends for SortLCP and Sort that
// are EQUIVALENT to the sequential sorters — same permutation, same LCP
// array, same characters-inspected work total — at every pool width.
//
// Why not a splitter-based parallel sample sort (pS5-style)? Classifying
// strings against sampled splitters inspects characters the sequential
// sorter never looks at, so the work counter — the input of the paper's
// α-β model time — would change with the core count and the model
// statistics would stop being comparable across machines. Instead, the
// parallel decomposition follows the sequential algorithm's own structure:
//
//   - ParallelSortLCP parallelizes the MSD radix pass itself. The 257-way
//     character histogram IS the classification step (computed from the
//     same single character inspection per string the sequential counting
//     pass bills), chunk-parallel counting plus per-worker prefix-summed
//     offsets make the distribution both parallel and stable, and the 257
//     bucket recursions — disjoint subarrays — run as pool tasks, bottoming
//     out in the unmodified sequential kernels (msdRadix → mkqsort →
//     insertion sort).
//   - ParallelSort parallelizes multikey quicksort by running the ternary
//     partition sequentially at each node (identical swaps, identical
//     work billing) and recursing into the disjoint <, =, > parts as pool
//     tasks, again bottoming out in the sequential kernel.
//
// Both front-ends skip shared runs exactly like the sequential kernels
// (the same sharedRun scan and k·n billing before each pass or partition),
// so a D/N prefix costs one scan rather than one fork/join pass per shared
// character.
//
// Equivalence argument (pinned by FuzzParallelSortEquivalence, the oracle
// differential and the stringsort determinism suite): chunk-major
// distribution order equals the sequential encounter order, so the
// permutation entering every bucket is identical; each sub-sort runs the
// exact sequential code on an identical subarray; and the work total is a
// sum of per-task int64 counters whose addition commutes, so no schedule
// can change it.
package strsort

import (
	"sync/atomic"
	"time"

	"dss/internal/par"
)

// Parallel decomposition thresholds. Subproblems below parSortMin strings
// are handed to the sequential kernels whole (fork/join overhead would
// dominate); counting/distribution chunks never shrink below parChunkMin
// strings.
const (
	parSortMin  = 4096
	parChunkMin = 1024
)

// parSorter carries the shared state of one parallel sorting run: the
// pool, the spawned-task group of the bucket recursion, and the
// order-independent work / busy-time accumulators. busy is the single
// source of truth for CPU time: ForEach passes, sequential leaves and
// partition loops each bill their own span, and no timed span ever
// encloses a spawn site — so the group's own busy meter (which would
// double-count nested spans) is deliberately discarded at Wait.
type parSorter struct {
	pool *par.Pool
	grp  *par.Group
	work atomic.Int64
	busy atomic.Int64
}

// ParallelSortLCP sorts ss in place with its LCP array, permuting sat
// alongside if non-nil, spreading the work over the pool. It returns the
// LCP array (lcp reused if non-nil, like Sorter.SortLCPInto), the
// characters-inspected work total — bit-identical to SortLCP's at every
// pool width — and the summed busy nanoseconds of all workers (the
// CPU-seconds measurement; NOT a model input).
func ParallelSortLCP(pool *par.Pool, ss [][]byte, sat []uint64, lcp []int32) ([]int32, int64, int64) {
	if sat != nil && len(sat) != len(ss) {
		panic("strsort: satellite length mismatch")
	}
	if lcp == nil {
		lcp = make([]int32, len(ss))
	} else if len(lcp) != len(ss) {
		panic("strsort: lcp length mismatch")
	}
	if pool.Sequential() || len(ss) < parSortMin {
		t0 := time.Now()
		st := GetSized(len(ss))
		if len(ss) > 1 {
			st.msdRadix(ss, sat, lcp, 0)
		}
		work := st.work
		Put(st)
		return lcp, work, time.Since(t0).Nanoseconds()
	}
	ps := &parSorter{pool: pool, grp: pool.Group()}
	ps.radix(ss, sat, lcp, 0)
	ps.grp.Wait() // join + panic propagation; busy is tracked by ps.busy
	return lcp, ps.work.Load(), ps.busy.Load()
}

// ParallelSort sorts ss in place without LCP output (the Sort / MS-simple
// / FKmerge path), returning the work total — bit-identical to Sort's —
// and the summed worker busy nanoseconds.
func ParallelSort(pool *par.Pool, ss [][]byte, sat []uint64) (int64, int64) {
	if pool.Sequential() || len(ss) < parSortMin {
		t0 := time.Now()
		st := GetSized(len(ss))
		st.Sort(ss, sat)
		work := st.work
		Put(st)
		return work, time.Since(t0).Nanoseconds()
	}
	ps := &parSorter{pool: pool, grp: pool.Group()}
	ps.mkq(ss, sat, 0)
	ps.grp.Wait() // join + panic propagation; busy is tracked by ps.busy
	return ps.work.Load(), ps.busy.Load()
}

// seqLeaf runs one subproblem on the unmodified sequential radix kernel.
func (ps *parSorter) seqLeaf(ss [][]byte, sat []uint64, lcp []int32, depth int) {
	t0 := time.Now()
	st := GetSized(len(ss))
	if len(ss) > 1 {
		st.msdRadix(ss, sat, lcp, depth)
	}
	ps.work.Add(st.work)
	Put(st)
	ps.busy.Add(time.Since(t0).Nanoseconds())
}

// radix is the parallel form of Sorter.msdRadix: the shared-run skip, one
// counting pass billed exactly like the sequential one (n characters), a
// stable chunk-parallel distribution producing the sequential permutation,
// the sequential LCP boundary assignment, and the bucket recursions
// spawned on the group.
func (ps *parSorter) radix(ss [][]byte, sat []uint64, lcp []int32, depth int) {
	n := len(ss)
	if n < parSortMin {
		ps.seqLeaf(ss, sat, lcp, depth)
		return
	}
	t0 := time.Now()
	skip := sharedRun(ss, depth)
	ps.work.Add(int64(skip) * int64(n))
	depth += skip
	ps.busy.Add(time.Since(t0).Nanoseconds())

	// Chunk-parallel counting pass over the (depth+1)-st character: worker
	// w histograms chunk [lo(w), lo(w+1)). One character inspection per
	// string, billed once for the whole pass — identical to sequential.
	w := ps.pool.Cores()
	if max := n / parChunkMin; w > max {
		w = max
	}
	chunkLo := func(k int) int { return k * n / w }
	counts := make([][257]int, w)
	ps.busy.Add(ps.pool.ForEach(w, func(k int) {
		c := &counts[k]
		for _, s := range ss[chunkLo(k):chunkLo(k+1)] {
			c[bucketOf(s, depth)]++
		}
	}))
	ps.work.Add(int64(n))

	// Global bucket starts, then per-worker write cursors: worker w's slot
	// in bucket b begins after all earlier chunks' strings of that bucket,
	// so the chunk-major distribution below reproduces the sequential
	// encounter order exactly (stability).
	var start [258]int
	next := make([][257]int, w)
	{
		run := 0
		for b := 0; b < 257; b++ {
			start[b] = run
			for k := 0; k < w; k++ {
				next[k][b] = run
				run += counts[k][b]
			}
		}
		start[257] = run
	}

	// Stable out-of-place distribution into pooled scratch, then a
	// chunk-parallel copy back. Each tmp index is written by exactly one
	// worker (disjoint cursor ranges); the ForEach barrier orders the
	// scatter before the copy.
	scratch := GetSized(n)
	if cap(scratch.tmpStrings) < n {
		scratch.tmpStrings = make([][]byte, n)
	}
	tmp := scratch.tmpStrings[:n]
	var tmpSat []uint64
	if sat != nil {
		if cap(scratch.tmpSat) < n {
			scratch.tmpSat = make([]uint64, n)
		}
		tmpSat = scratch.tmpSat[:n]
	}
	ps.busy.Add(ps.pool.ForEach(w, func(k int) {
		nx := &next[k]
		for i := chunkLo(k); i < chunkLo(k+1); i++ {
			b := bucketOf(ss[i], depth)
			tmp[nx[b]] = ss[i]
			if sat != nil {
				tmpSat[nx[b]] = sat[i]
			}
			nx[b]++
		}
	}))
	ps.busy.Add(ps.pool.ForEach(w, func(k int) {
		lo, hi := chunkLo(k), chunkLo(k+1)
		copy(ss[lo:hi], tmp[lo:hi])
		if sat != nil {
			copy(sat[lo:hi], tmpSat[lo:hi])
		}
	}))
	Put(scratch)

	// LCP boundaries, exactly as in the sequential pass: depth between
	// equal strings of the end bucket and at every bucket's first string.
	count0 := start[1] - start[0]
	for i := 1; i < count0; i++ {
		lcp[i] = int32(depth)
	}
	for b := 1; b <= 256; b++ {
		lo, hi := start[b], start[b+1]
		if lo < hi && lo > 0 {
			lcp[lo] = int32(depth)
		}
		if hi-lo > 1 {
			lo, hi := lo, hi
			ps.grp.Go(func() {
				ps.radix(ss[lo:hi], satSlice(sat, lo, hi), lcp[lo:hi], depth+1)
			})
		}
	}
}

// mkq is the parallel form of Sorter.mkqsort: the shared-run skip and the
// ternary partition at each node are the sequential code verbatim
// (identical swaps, identical billing); the <, > parts become group tasks
// and the = part is the sequential tail-iteration one character deeper.
func (ps *parSorter) mkq(ss [][]byte, sat []uint64, depth int) {
	for len(ss) >= parSortMin {
		n := len(ss)
		t0 := time.Now()
		skip := sharedRun(ss, depth)
		ps.work.Add(int64(skip) * int64(n))
		depth += skip
		p := medianOf3Char(ss, depth)
		lt, i, gt := 0, 0, n-1
		for i <= gt {
			c := charAt(ss[i], depth)
			switch {
			case c < p:
				swap(ss, sat, lt, i)
				lt++
				i++
			case c > p:
				swap(ss, sat, i, gt)
				gt--
			default:
				i++
			}
		}
		ps.work.Add(int64(n))
		ps.busy.Add(time.Since(t0).Nanoseconds())
		// Capture depth by value: the tail-iteration below mutates the
		// variable before the spawned tasks may run.
		low, lowSat, d := ss[:lt], satSlice(sat, 0, lt), depth
		high, highSat := ss[gt+1:], satSlice(sat, gt+1, n)
		ps.grp.Go(func() { ps.mkq(low, lowSat, d) })
		ps.grp.Go(func() { ps.mkq(high, highSat, d) })
		if p < 0 {
			// Strings ending at depth: fully equal, nothing left to sort.
			return
		}
		ss = ss[lt : gt+1]
		sat = satSlice(sat, lt, gt+1)
		depth++
	}
	t0 := time.Now()
	st := GetSized(len(ss))
	if len(ss) > 1 {
		st.mkqsort(ss, sat, depth)
	}
	ps.work.Add(st.work)
	Put(st)
	ps.busy.Add(time.Since(t0).Nanoseconds())
}
