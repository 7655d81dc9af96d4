package strsort

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"dss/internal/input"
	"dss/internal/par"
)

// checkAgainstOracle asserts that every front-end — SortLCP, Sort, and
// ParallelSortLCP / ParallelSort at widths 1, 2 and 4 — reproduces the
// pass-by-pass oracle exactly: satellite permutation, LCP array and
// characters-inspected work.
func checkAgainstOracle(t *testing.T, label string, ss [][]byte) {
	t.Helper()
	refSS, refSat := cloneInput(ss)
	refLCP, refWork := oracleSortLCP(refSS, refSat)
	mkSS, mkSat := cloneInput(ss)
	mkWork := oracleSort(mkSS, mkSat)

	same := func(front string, gotSat []uint64, gotLCP []int32, gotWork int64, wantSat []uint64, wantLCP []int32, wantWork int64) {
		t.Helper()
		if gotWork != wantWork {
			t.Fatalf("%s %s: work %d, oracle %d", label, front, gotWork, wantWork)
		}
		for i := range wantSat {
			if gotSat[i] != wantSat[i] {
				t.Fatalf("%s %s: permutation differs at %d: sat %d, oracle %d", label, front, i, gotSat[i], wantSat[i])
			}
			if wantLCP != nil && gotLCP[i] != wantLCP[i] {
				t.Fatalf("%s %s: lcp[%d] = %d, oracle %d", label, front, i, gotLCP[i], wantLCP[i])
			}
		}
	}

	gotSS, gotSat := cloneInput(ss)
	gotLCP, gotWork := SortLCP(gotSS, gotSat)
	same("SortLCP", gotSat, gotLCP, gotWork, refSat, refLCP, refWork)
	gotSS, gotSat = cloneInput(ss)
	gotWork = Sort(gotSS, gotSat)
	same("Sort", gotSat, nil, gotWork, mkSat, nil, mkWork)
	for _, cores := range []int{1, 2, 4} {
		pool := par.New(cores)
		gotSS, gotSat = cloneInput(ss)
		gotLCP, gotWork, _ = ParallelSortLCP(pool, gotSS, gotSat, nil)
		same(fmt.Sprintf("ParallelSortLCP/%d", cores), gotSat, gotLCP, gotWork, refSat, refLCP, refWork)
		gotSS, gotSat = cloneInput(ss)
		gotWork, _ = ParallelSort(pool, gotSS, gotSat)
		same(fmt.Sprintf("ParallelSort/%d", cores), gotSat, nil, gotWork, mkSat, nil, mkWork)
	}
}

// randTail returns a string over {a, b} of length in [0, maxLen].
func randTail(rng *rand.Rand, maxLen int) []byte {
	s := make([]byte, rng.Intn(maxLen+1))
	for i := range s {
		s[i] = byte('a' + rng.Intn(2))
	}
	return s
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// TestSharedRunOracleDifferential pins the skipping sorters to the oracle
// on inputs built to break the skip: runs ending at every offset of an
// 8-byte word (behind leads of 0, 1 and 3 characters, so they also start
// mid-word), strings ending inside the run, all-equal, empty and
// duplicate strings, a single deviator first, in the middle and last,
// lengths below one word, and D/N and CommonCrawl-like shapes at sizes
// straddling radixThreshold and parSortMin.
func TestSharedRunOracleDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	sizes := []int{insertionThreshold + 4, radixThreshold + 72, parSortMin + 100}
	leads := [][]byte{nil, []byte("L"), []byte("lea")}
	for r := 0; r <= 17; r++ {
		run := make([]byte, r)
		for i := range run {
			run[i] = byte('c' + i%5)
		}
		for li, lead := range leads {
			for _, n := range sizes {
				// The run, then a varied tail; two lead variants split
				// the subproblem first, so the run starts at depth len(lead).
				ss := make([][]byte, n)
				for i := range ss {
					l := lead
					if lead != nil && i%2 == 1 {
						l = []byte(string(lead[:len(lead)-1]) + "M")
					}
					ss[i] = cat(l, run, randTail(rng, 6))
				}
				checkAgainstOracle(t, fmt.Sprintf("run=%d lead=%d n=%d", r, li, n), ss)
				// Every 7th string ends inside the run.
				for i := 0; i < n; i += 7 {
					ss[i] = cat(lead, run[:rng.Intn(r+1)])
				}
				checkAgainstOracle(t, fmt.Sprintf("run=%d lead=%d n=%d short", r, li, n), ss)
			}
		}
	}

	for _, n := range sizes {
		for _, r := range []int{0, 5, 8, 13, 21} {
			s := bytes.Repeat([]byte("e"), r)
			equal := make([][]byte, n)
			dups := make([][]byte, n)
			vals := [][]byte{cat(s, []byte("x")), cat(s, []byte("xy")), s}
			for i := range equal {
				equal[i] = s
				dups[i] = vals[rng.Intn(len(vals))]
			}
			checkAgainstOracle(t, fmt.Sprintf("all-equal len=%d n=%d", r, n), equal)
			checkAgainstOracle(t, fmt.Sprintf("duplicates run=%d n=%d", r, n), dups)
		}

		// A single deviator breaks a 20-character run at position d — by a
		// smaller or larger byte, or by ending there — first, mid and last.
		base := []byte("deviator-shared-run!")
		for _, d := range []int{0, 3, 7, 8, 13, 19} {
			devs := [][]byte{
				cat(base[:d], []byte{base[d] - 1}, base[d+1:]),
				cat(base[:d], []byte{base[d] + 1}),
				base[:d],
			}
			for di, dev := range devs {
				for _, at := range []int{0, n / 2, n - 1} {
					ss := make([][]byte, n)
					for i := range ss {
						ss[i] = cat(base, randTail(rng, 3))
					}
					ss[at] = dev
					checkAgainstOracle(t, fmt.Sprintf("deviator d=%d kind=%d at=%d n=%d", d, di, at, n), ss)
				}
			}
		}

		// Lengths below one word: every load falls back to the byte loop.
		short := make([][]byte, n)
		for i := range short {
			short[i] = cat([]byte("ab")[:rng.Intn(3)], randTail(rng, 5))
		}
		checkAgainstOracle(t, fmt.Sprintf("short n=%d", n), short)
	}
	empty := make([][]byte, parSortMin+3)
	for i := range empty {
		empty[i] = []byte{}
	}
	checkAgainstOracle(t, "empty", empty)

	for _, n := range []int{radixThreshold - 1, radixThreshold, parSortMin - 1, parSortMin, 2*parSortMin + 7} {
		dn := input.DN(input.DNConfig{StringsPerPE: n, Length: 100, Ratio: 0.5, Seed: 1}, 0, 1)
		rng.Shuffle(len(dn), func(i, j int) { dn[i], dn[j] = dn[j], dn[i] })
		checkAgainstOracle(t, fmt.Sprintf("dn n=%d", n), dn)
		cc := input.CommonCrawlLike(input.CCConfig{LinesPerPE: n, Seed: 1}, 0, 1)
		checkAgainstOracle(t, fmt.Sprintf("cc n=%d", n), cc)
	}
}

// TestSortDeepSharedPrefix sorts 200 strings that share a 200 000-byte
// prefix and end in two distinct bytes. One radix pass per shared
// character used to recurse 200 000 frames deep and overflow the stack.
// The skip must bill exactly what those passes billed: sorting the
// prefixed strings costs k·n plus the work of sorting the tails alone,
// every LCP grows by k, and the order is the tails' order.
func TestSortDeepSharedPrefix(t *testing.T) {
	const n, k = 200, 200000
	rng := rand.New(rand.NewSource(16))
	prefix := make([]byte, k)
	rng.Read(prefix)
	tails := make([][]byte, n)
	for i, v := range rng.Perm(n) {
		tails[i] = []byte{byte(v >> 4), byte(v & 15)}
	}
	ss := make([][]byte, n)
	for i, tl := range tails {
		ss[i] = cat(prefix, tl)
	}
	want := make([][]byte, n)
	copy(want, ss)
	sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i], want[j]) < 0 })

	tailSS, tailSat := cloneInput(tails)
	tailLCP, tailLCPWork := oracleSortLCP(tailSS, tailSat)
	plainSS, plainSat := cloneInput(tails)
	tailWork := oracleSort(plainSS, plainSat)

	check := func(front string, got [][]byte, gotSat []uint64, gotLCP []int32, gotWork int64, wantSat []uint64, wantTailWork int64) {
		t.Helper()
		if w := int64(k)*n + wantTailWork; gotWork != w {
			t.Fatalf("%s: work %d, want k·n + tail = %d", front, gotWork, w)
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) || gotSat[i] != wantSat[i] {
				t.Fatalf("%s: position %d out of order", front, i)
			}
			if gotLCP != nil && i > 0 && gotLCP[i] != k+tailLCP[i] {
				t.Fatalf("%s: lcp[%d] = %d, want %d", front, i, gotLCP[i], k+tailLCP[i])
			}
		}
		if gotLCP != nil && gotLCP[0] != 0 {
			t.Fatalf("%s: lcp[0] = %d", front, gotLCP[0])
		}
	}

	got, sat := cloneInput(ss)
	lcp, work := SortLCP(got, sat)
	check("SortLCP", got, sat, lcp, work, tailSat, tailLCPWork)
	got, sat = cloneInput(ss)
	work = Sort(got, sat)
	check("Sort", got, sat, nil, work, plainSat, tailWork)
	for _, cores := range []int{1, 2, 4} {
		pool := par.New(cores)
		got, sat = cloneInput(ss)
		lcp, work, _ = ParallelSortLCP(pool, got, sat, nil)
		check(fmt.Sprintf("ParallelSortLCP/%d", cores), got, sat, lcp, work, tailSat, tailLCPWork)
		got, sat = cloneInput(ss)
		work, _ = ParallelSort(pool, got, sat)
		check(fmt.Sprintf("ParallelSort/%d", cores), got, sat, nil, work, plainSat, tailWork)
	}
}
