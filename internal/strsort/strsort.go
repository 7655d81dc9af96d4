// Package strsort implements the sequential string sorting stack used as
// the base case of all distributed algorithms (Section II-A of the paper):
// MSD string radix sort down to small subproblems, multikey quicksort
// (Bentley-Sedgewick) below that, and LCP-aware insertion sort for constant
// size inputs. The sorters produce the LCP array as part of the output at
// no additional asymptotic cost and report the number of characters
// inspected, the work measure the cost model is based on.
//
// Shared runs: before every radix pass and every ternary partition, one
// word-wise scan (sharedRun) measures how many characters from the current
// depth on all strings of the subproblem have and agree on. Exactly that
// many consecutive passes would put every string into one bucket, and such
// a pass is a no-op: the stable distribution is the identity, no LCP
// boundary is written and an all-equal partition swaps nothing. The
// sorters skip them, billing the k·n characters they would have inspected,
// so the permutation, the LCP array and the work counter are those of the
// pass-by-pass algorithm, while a prefix shared by the whole subproblem
// costs k/8 word loads per string instead of k passes (and k recursion
// levels) over it.
//
// All sorters optionally carry one word of satellite data per string
// (original index, origin id) through the permutation, which the
// distributed algorithms use to report where each output string came from.
package strsort

import (
	"encoding/binary"
	"math/bits"
	"sync"

	"dss/internal/strutil"
)

// Thresholds: subproblems with at least radixThreshold strings are sorted
// by one MSD radix sort pass; medium ones by multikey quicksort; below
// insertionThreshold plain LCP insertion sort takes over.
const (
	radixThreshold     = 128
	insertionThreshold = 16
)

// Sorter carries the scratch state of one sorting run; it exists so that
// repeated sorts can reuse allocations.
type Sorter struct {
	work int64
	// scratch buffers for the radix passes
	tmpStrings [][]byte
	tmpSat     []uint64
}

// sorterPools recycle Sorter scratch space across sorting runs, bucketed
// by the power-of-two size class of the radix distribution buffer. One
// undifferentiated pool was fine while each PE ran one sort at a time; the
// parallel Step-1 sorter checks out many Sorters concurrently — one per
// bucket subproblem — and a single class would hand a scratch buffer grown
// for the whole input to a 200-string bucket (pinning memory) or a tiny
// one to a large bucket (forcing a reallocation). sync.Pool itself is
// per-P, so concurrent workers mostly hit thread-local free lists and
// never share a scratch buffer: a pooled Sorter is owned exclusively
// between Get and Put.
var sorterPools [bits.UintSize + 1]sync.Pool

// sizeClass buckets a scratch capacity: class k holds buffers with
// cap in [2^(k-1), 2^k).
func sizeClass(n int) int { return bits.Len(uint(n)) }

// Get returns a Sorter with recycled scratch space and a zeroed work
// counter. Return it with Put when the sort is done.
func Get() *Sorter { return GetSized(0) }

// GetSized returns a Sorter whose recycled scratch space, if any, comes
// from the size class of an n-string subproblem — the right checkout for
// the parallel sorter's per-worker bucket sorts.
func GetSized(n int) *Sorter {
	st, _ := sorterPools[sizeClass(n)].Get().(*Sorter)
	if st == nil {
		st = new(Sorter)
	}
	st.work = 0
	return st
}

// Put returns a Sorter to the scratch pool of its size class. The string
// scratch is cleared so pooled Sorters do not pin the last run's character
// data.
func Put(st *Sorter) {
	clear(st.tmpStrings[:cap(st.tmpStrings)])
	sorterPools[sizeClass(cap(st.tmpStrings))].Put(st)
}

// Work returns the characters-inspected counter accumulated so far.
func (st *Sorter) Work() int64 { return st.work }

// SortLCP sorts ss in place lexicographically, computes its LCP array
// (lcp[0] == 0, lcp[i] == LCP(ss[i-1], ss[i])), permutes sat alongside if
// non-nil, and returns the number of characters inspected. This is the
// Step 1 sorter of Algorithms MS and PDMS. Scratch space is drawn from the
// package pool.
func SortLCP(ss [][]byte, sat []uint64) (lcp []int32, work int64) {
	st := Get()
	lcp = st.SortLCPInto(ss, sat, nil)
	work = st.work
	Put(st)
	return lcp, work
}

// Sort sorts ss in place without producing an LCP array and returns the
// number of characters inspected. Scratch space is drawn from the package
// pool.
func Sort(ss [][]byte, sat []uint64) (work int64) {
	st := Get()
	if len(ss) > 1 {
		st.mkqsort(ss, sat, 0)
	}
	work = st.work
	Put(st)
	return work
}

// Sort sorts ss in place without producing an LCP array, reusing the
// Sorter's scratch space and accumulating into its work counter.
func (st *Sorter) Sort(ss [][]byte, sat []uint64) {
	if len(ss) > 1 {
		st.mkqsort(ss, sat, 0)
	}
}

// SortLCPInto is like SortLCP but reuses the Sorter's scratch space and an
// optional caller-provided LCP slice (must have len(ss) if non-nil).
func (st *Sorter) SortLCPInto(ss [][]byte, sat []uint64, lcp []int32) []int32 {
	if sat != nil && len(sat) != len(ss) {
		panic("strsort: satellite length mismatch")
	}
	if lcp == nil {
		lcp = make([]int32, len(ss))
	} else if len(lcp) != len(ss) {
		panic("strsort: lcp length mismatch")
	}
	if len(ss) > 1 {
		st.msdRadix(ss, sat, lcp, 0)
	}
	return lcp
}

// msdRadix sorts one subproblem whose strings all share a common prefix of
// length depth, assigning lcp[1:] within the subproblem (lcp[0] belongs to
// the caller: it is the boundary with whatever precedes the subproblem).
func (st *Sorter) msdRadix(ss [][]byte, sat []uint64, lcp []int32, depth int) {
	n := len(ss)
	if n < 2 {
		return
	}
	if n < radixThreshold {
		st.mkqsort(ss, sat, depth)
		st.fillLCP(ss, lcp, depth)
		return
	}
	skip := sharedRun(ss, depth)
	st.work += int64(skip) * int64(n)
	depth += skip

	// Counting pass over the (depth+1)-st character. Bucket 0 holds strings
	// that end exactly at depth; bucket c+1 holds strings with s[depth]==c.
	var count [257]int
	for _, s := range ss {
		count[bucketOf(s, depth)]++
	}
	st.work += int64(n)

	// Bucket start offsets.
	var start [258]int
	for i := 0; i < 257; i++ {
		start[i+1] = start[i] + count[i]
	}

	// Out-of-place stable distribution, then copy back.
	if cap(st.tmpStrings) < n {
		st.tmpStrings = make([][]byte, n)
	}
	tmp := st.tmpStrings[:n]
	var tmpSat []uint64
	if sat != nil {
		if cap(st.tmpSat) < n {
			st.tmpSat = make([]uint64, n)
		}
		tmpSat = st.tmpSat[:n]
	}
	next := start
	for i, s := range ss {
		b := bucketOf(s, depth)
		tmp[next[b]] = s
		if sat != nil {
			tmpSat[next[b]] = sat[i]
		}
		next[b]++
	}
	copy(ss, tmp)
	if sat != nil {
		copy(sat, tmpSat)
	}

	// LCP values: the boundary between two buckets, and between equal
	// strings in the end bucket, is exactly depth. The end bucket occupies
	// [0, count[0]); index 0 is the subproblem boundary owned by the caller.
	for i := 1; i < count[0]; i++ {
		lcp[i] = int32(depth)
	}
	for b := 1; b <= 256; b++ {
		lo, hi := start[b], start[b]+count[b]
		if lo < hi && lo > 0 {
			lcp[lo] = int32(depth)
		}
		if count[b] > 1 {
			st.msdRadix(ss[lo:hi], satSlice(sat, lo, hi), lcp[lo:hi], depth+1)
		}
	}
	// Fix the end bucket's first entry if the subproblem starts with it:
	// lcp[0] is owned by the caller, nothing to do (the loop above skipped
	// i == 0 already).
}

// sharedRun returns how many characters from depth on every string of ss
// (len(ss) ≥ 2, all sharing a prefix of length depth) has and agrees on
// with ss[0]: min over i of LCP(ss[0], ss[i]) − depth, the number of
// consecutive single-bucket passes the subproblem is about to make. The
// scan is round-major — each round compares one 8-byte word of every
// string with ss[0]'s (little-endian XOR, TrailingZeros64 locating the
// first differing byte, as in strutil) — and stops at the first string
// that mismatches at the start of a round. A subproblem with no shared
// character thus pays about one word comparison, and k skipped passes cost
// O(n·(1+k/8)) word loads.
func sharedRun(ss [][]byte, depth int) int {
	s0 := ss[0]
	end := len(s0) // the run never outlasts ss[0]; shrinks as strings break it
	for off := depth; off < end; off += 8 {
		full := off+8 <= len(s0)
		var w0 uint64
		if full {
			w0 = binary.LittleEndian.Uint64(s0[off:])
		}
		for _, s := range ss[1:] {
			j := off
			if full && off+8 <= len(s) {
				x := binary.LittleEndian.Uint64(s[off:]) ^ w0
				if x == 0 {
					continue
				}
				j += bits.TrailingZeros64(x) >> 3
			} else {
				for j < end && j < len(s) && s[j] == s0[j] {
					j++
				}
			}
			if j < end {
				end = j
				if end == off {
					return end - depth
				}
			}
		}
	}
	return end - depth
}

func bucketOf(s []byte, depth int) int {
	if len(s) == depth {
		return 0
	}
	return int(s[depth]) + 1
}

func satSlice(sat []uint64, lo, hi int) []uint64 {
	if sat == nil {
		return nil
	}
	return sat[lo:hi]
}

// mkqsort is multikey quicksort: ternary partition on the character at
// position depth, recursing into <, =, > parts [Bentley & Sedgewick 1997].
// Characters before depth are known to be equal across the subproblem and
// are never inspected again.
func (st *Sorter) mkqsort(ss [][]byte, sat []uint64, depth int) {
	for len(ss) > insertionThreshold {
		n := len(ss)
		skip := sharedRun(ss, depth)
		st.work += int64(skip) * int64(n)
		depth += skip
		p := medianOf3Char(ss, depth)
		// Ternary partition by charAt(s, depth) compared to p.
		// Invariant: [0,lt) < p, [lt,i) == p, (gt,n-1] > p.
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
		st.work += int64(n)
		st.mkqsort(ss[:lt], satSlice(sat, 0, lt), depth)
		st.mkqsort(ss[gt+1:], satSlice(sat, gt+1, n), depth)
		if p < 0 {
			// The equal part consists of strings ending at depth: they are
			// fully equal, nothing left to sort.
			return
		}
		// Tail-call into the equal part one character deeper.
		ss = ss[lt : gt+1]
		sat = satSlice(sat, lt, gt+1)
		depth++
	}
	st.insertionSort(ss, sat, depth)
}

// charAt returns the character at position depth, or -1 if the string ends
// there (end-of-string sorts before every character).
func charAt(s []byte, depth int) int {
	if len(s) == depth {
		return -1
	}
	return int(s[depth])
}

func medianOf3Char(ss [][]byte, depth int) int {
	n := len(ss)
	a, b, c := charAt(ss[0], depth), charAt(ss[n/2], depth), charAt(ss[n-1], depth)
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
		if a > b {
			b = a
		}
	}
	return b
}

func swap(ss [][]byte, sat []uint64, i, j int) {
	ss[i], ss[j] = ss[j], ss[i]
	if sat != nil {
		sat[i], sat[j] = sat[j], sat[i]
	}
}

// insertionSort sorts a small subproblem whose strings share a prefix of
// length depth, comparing only from depth onwards.
func (st *Sorter) insertionSort(ss [][]byte, sat []uint64, depth int) {
	for i := 1; i < len(ss); i++ {
		s := ss[i]
		var u uint64
		if sat != nil {
			u = sat[i]
		}
		j := i
		for j > 0 {
			cmp, lcp := compareLCPFrom(ss[j-1], s, depth)
			st.work += int64(lcp - depth + 1)
			if cmp <= 0 {
				break
			}
			ss[j] = ss[j-1]
			if sat != nil {
				sat[j] = sat[j-1]
			}
			j--
		}
		ss[j] = s
		if sat != nil {
			sat[j] = u
		}
	}
}

// fillLCP computes lcp[1:] of a sorted subproblem whose strings share a
// prefix of length depth. Characters before depth are not inspected.
func (st *Sorter) fillLCP(ss [][]byte, lcp []int32, depth int) {
	for i := 1; i < len(ss); i++ {
		_, h := compareLCPFrom(ss[i-1], ss[i], depth)
		st.work += int64(h - depth + 1)
		lcp[i] = int32(h)
	}
}

// compareLCPFrom compares a and b skipping the first `from` characters,
// returning the comparison and the full LCP (word-wise via strutil).
func compareLCPFrom(a, b []byte, from int) (cmp, lcp int) {
	return strutil.CompareLCP(a, b, from)
}
