package merge

import (
	"bytes"
	"sort"
	"sync"
	"testing"

	"dss/internal/input"
	"dss/internal/partition"
	"dss/internal/strsort"
	"dss/internal/wire"
)

const (
	decodedPEs   = 8
	decodedPerPE = 50000
)

var (
	decodedOnce sync.Once
	decodedRuns [][]Sequence // decodedRuns[dst][src]
)

// decodedInstance builds the Step-4 input of a D/N sort on 8 PEs
// (50 000 strings of length 100 per PE, D/N ratio 0.5): every PE's strings
// sorted with SortLCP, cut into 8 buckets by regularly sampled splitters,
// and each bucket round-tripped through the LCP wire format, so the runs
// have the flat-arena layout Step 3 hands to Step 4.
func decodedInstance() [][]Sequence {
	decodedOnce.Do(func() {
		cfg := input.DNConfig{StringsPerPE: decodedPerPE, Length: 100, Ratio: 0.5, Seed: 1}
		sorted := make([][][]byte, decodedPEs)
		lcps := make([][]int32, decodedPEs)
		var sample [][]byte
		for pe := range sorted {
			ss := input.DN(cfg, pe, decodedPEs)
			lcps[pe], _ = strsort.SortLCP(ss, nil)
			sorted[pe] = ss
			for j := 1; j < decodedPEs; j++ {
				sample = append(sample, ss[j*len(ss)/decodedPEs])
			}
		}
		sort.Slice(sample, func(i, j int) bool { return bytes.Compare(sample[i], sample[j]) < 0 })
		splitters := make([][]byte, decodedPEs-1)
		for j := range splitters {
			splitters[j] = sample[(j+1)*len(sample)/decodedPEs]
		}
		decodedRuns = make([][]Sequence, decodedPEs)
		for dst := range decodedRuns {
			decodedRuns[dst] = make([]Sequence, decodedPEs)
		}
		for src, ss := range sorted {
			off := partition.Buckets(ss, splitters)
			for dst := range decodedRuns {
				lo, hi := off[dst], off[dst+1]
				bucketLCPs := append([]int32(nil), lcps[src][lo:hi]...)
				if len(bucketLCPs) > 0 {
					bucketLCPs[0] = 0
				}
				strs, l, err := wire.DecodeStringsLCP(wire.EncodeStringsLCP(ss[lo:hi], bucketLCPs))
				if err != nil {
					panic(err)
				}
				decodedRuns[dst][src] = Sequence{Strings: strs, LCPs: l}
			}
		}
	})
	return decodedRuns
}

// BenchmarkMergeLCPDecoded merges the decoded runs of every destination PE
// — the cold-string, long-shared-prefix case the short random strings of
// BenchmarkMergeLCP8Runs do not show — through the eager merge and through
// the sink merge over single-window sources, reporting ns and billed
// characters per merged string.
func BenchmarkMergeLCPDecoded(b *testing.B) {
	runs := decodedInstance()
	n := decodedPEs * decodedPerPE
	report := func(b *testing.B, work int64) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/str")
		b.ReportMetric(float64(work)/float64(n), "work/str")
	}
	b.Run("eager", func(b *testing.B) {
		var work int64
		for i := 0; i < b.N; i++ {
			work = 0
			for _, seqs := range runs {
				_, w := MergeLCP(seqs)
				work += w
			}
		}
		report(b, work)
	})
	b.Run("sink", func(b *testing.B) {
		discard := func([]byte, int32, uint64) error { return nil }
		var work int64
		for i := 0; i < b.N; i++ {
			work = 0
			for _, seqs := range runs {
				_, w, _ := MergeStreamSink(sliceSources(seqs), StreamOptions{LCP: true}, discard)
				work += w
			}
		}
		report(b, work)
	})
}
