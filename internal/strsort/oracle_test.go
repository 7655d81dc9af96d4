package strsort

// The pass-by-pass kernels without the shared-run skip: one radix pass or
// ternary partition per character, single-bucket passes included. The
// differential tests pin the skipping sorters to these on permutation,
// LCP array and characters-inspected work.

// oracleSortLCP is SortLCP without the shared-run skip.
func oracleSortLCP(ss [][]byte, sat []uint64) (lcp []int32, work int64) {
	st := &Sorter{}
	lcp = make([]int32, len(ss))
	if len(ss) > 1 {
		st.oracleMSDRadix(ss, sat, lcp, 0)
	}
	return lcp, st.work
}

// oracleSort is Sort without the shared-run skip.
func oracleSort(ss [][]byte, sat []uint64) (work int64) {
	st := &Sorter{}
	if len(ss) > 1 {
		st.oracleMKQSort(ss, sat, 0)
	}
	return st.work
}

func (st *Sorter) oracleMSDRadix(ss [][]byte, sat []uint64, lcp []int32, depth int) {
	n := len(ss)
	if n < 2 {
		return
	}
	if n < radixThreshold {
		st.oracleMKQSort(ss, sat, depth)
		st.fillLCP(ss, lcp, depth)
		return
	}
	var count [257]int
	for _, s := range ss {
		count[bucketOf(s, depth)]++
	}
	st.work += int64(n)
	var start [258]int
	for i := 0; i < 257; i++ {
		start[i+1] = start[i] + count[i]
	}
	tmp := make([][]byte, n)
	var tmpSat []uint64
	if sat != nil {
		tmpSat = make([]uint64, n)
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
	for i := 1; i < count[0]; i++ {
		lcp[i] = int32(depth)
	}
	for b := 1; b <= 256; b++ {
		lo, hi := start[b], start[b]+count[b]
		if lo < hi && lo > 0 {
			lcp[lo] = int32(depth)
		}
		if count[b] > 1 {
			st.oracleMSDRadix(ss[lo:hi], satSlice(sat, lo, hi), lcp[lo:hi], depth+1)
		}
	}
}

func (st *Sorter) oracleMKQSort(ss [][]byte, sat []uint64, depth int) {
	for len(ss) > insertionThreshold {
		n := len(ss)
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
		st.work += int64(n)
		st.oracleMKQSort(ss[:lt], satSlice(sat, 0, lt), depth)
		st.oracleMKQSort(ss[gt+1:], satSlice(sat, gt+1, n), depth)
		if p < 0 {
			return
		}
		ss = ss[lt : gt+1]
		sat = satSlice(sat, lt, gt+1)
		depth++
	}
	st.insertionSort(ss, sat, depth)
}
