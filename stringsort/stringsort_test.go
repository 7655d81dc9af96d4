package stringsort

import (
	"math/rand"
	"sort"
	"testing"

	"dss/internal/input"
	"dss/internal/strutil"
)

func genInputs(rng *rand.Rand, p, nPerPE int) [][][]byte {
	inputs := make([][][]byte, p)
	for pe := range inputs {
		inputs[pe] = input.Random(nPerPE, 18, 3, pe, p, rng.Int63())
	}
	return inputs
}

func flatten(inputs [][][]byte) [][]byte {
	var all [][]byte
	for _, in := range inputs {
		all = append(all, in...)
	}
	return all
}

func TestSortAllAlgorithmsValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, algo := range Algorithms {
		inputs := genInputs(rng, 6, 150)
		res, err := Sort(inputs, Config{
			Algorithm:   algo,
			Seed:        7,
			Validate:    true,
			Reconstruct: true,
		})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		var concat [][]byte
		for _, pe := range res.PEs {
			concat = append(concat, pe.Strings...)
		}
		if !strutil.IsSorted(concat) {
			t.Fatalf("%v: output not globally sorted", algo)
		}
		if strutil.MultisetHash(concat) != strutil.MultisetHash(flatten(inputs)) {
			t.Fatalf("%v: output not a permutation", algo)
		}
		if res.Stats.BytesSent <= 0 || res.Stats.ModelTime <= 0 {
			t.Fatalf("%v: missing statistics: %+v", algo, res.Stats)
		}
	}
}

func TestSortStringsConvenience(t *testing.T) {
	words := []string{"pear", "apple", "fig", "banana", "apple", "date", ""}
	got, err := SortStrings(words, Config{P: 3, Algorithm: PDMS})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]string{}, words...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("got %d strings, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: %q, want %q", i, got[i], want[i])
		}
	}
}

func TestPDMSPrefixOnlyWithoutReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	inputs := genInputs(rng, 4, 100)
	res, err := Sort(inputs, Config{Algorithm: PDMS, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.PrefixOnly {
		t.Fatal("PDMS result without Reconstruct must be PrefixOnly")
	}
	for pe, out := range res.PEs {
		if len(out.Origins) != len(out.Strings) {
			t.Fatalf("PE %d: origins missing", pe)
		}
	}
}

func TestValidateCatchesNothingOnGoodRuns(t *testing.T) {
	// Validation across several p values including p > fragments.
	rng := rand.New(rand.NewSource(103))
	inputs := genInputs(rng, 3, 80)
	res, err := Sort(inputs, Config{P: 5, Algorithm: MS, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PEs) != 5 {
		t.Fatalf("got %d fragments", len(res.PEs))
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, a := range Algorithms {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseAlgorithm("pdms-golomb"); err != nil {
		t.Fatal("case-insensitive parse failed")
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := Sort(nil, Config{}); err == nil {
		t.Fatal("zero PEs accepted")
	}
	if _, err := Sort(make([][][]byte, 4), Config{P: 2}); err == nil {
		t.Fatal("more fragments than PEs accepted")
	}
}

func TestTieBreakBalancesDuplicatesEndToEnd(t *testing.T) {
	p := 6
	inputs := make([][][]byte, p)
	for pe := range inputs {
		for j := 0; j < 200; j++ {
			inputs[pe] = append(inputs[pe], []byte("same-everywhere"))
		}
	}
	run := func(tie bool) int {
		res, err := Sort(inputs, Config{Algorithm: MS, TieBreak: tie, Validate: true})
		if err != nil {
			t.Fatal(err)
		}
		m := 0
		for _, pe := range res.PEs {
			if len(pe.Strings) > m {
				m = len(pe.Strings)
			}
		}
		return m
	}
	if plain := run(false); plain < 1000 {
		t.Fatalf("plain MS balanced all-equal input unexpectedly: %d", plain)
	}
	if tie := run(true); tie > 2*200 {
		t.Fatalf("tie-break fragment %d of 1200", tie)
	}
}

func TestRandomSamplingConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	inputs := genInputs(rng, 4, 200)
	res, err := Sort(inputs, Config{Algorithm: MS, RandomSampling: true, Seed: 3, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PEs) != 4 {
		t.Fatal("wrong PE count")
	}
}

func TestEstimateDNSuggestsByWorkload(t *testing.T) {
	p := 4
	// Suffix-like tiny-D workload.
	small := make([][][]byte, p)
	for pe := range small {
		small[pe] = input.SuffixInstance(input.SuffixConfig{TextLen: 2000, Seed: 9}, pe, p)
	}
	est, err := EstimateDN(small, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est.Suggested != PDMS {
		t.Fatalf("tiny-D workload suggested %v, want PDMS (est %.1f)", est.Suggested, est.AvgDist)
	}
	// D ≈ N workload.
	big := make([][][]byte, p)
	for pe := range big {
		big[pe] = input.DN(input.DNConfig{StringsPerPE: 500, Length: 80, Ratio: 1, Seed: 9}, pe, p)
	}
	est, err = EstimateDN(big, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est.Suggested != MS {
		t.Fatalf("D≈N workload suggested %v, want MS (est %.1f)", est.Suggested, est.AvgDist)
	}
}

func TestStatsOrderingAcrossAlgorithms(t *testing.T) {
	// On a small-D workload the volume ordering of the paper must hold:
	// PDMS < MS < MS-simple.
	p := 8
	inputs := make([][][]byte, p)
	for pe := range inputs {
		inputs[pe] = input.DN(input.DNConfig{
			StringsPerPE: 300, Length: 120, Ratio: 0.25, Seed: 5,
		}, pe, p)
	}
	vol := map[Algorithm]int64{}
	for _, algo := range []Algorithm{MSSimple, MS, PDMS} {
		res, err := Sort(inputs, Config{Algorithm: algo, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		vol[algo] = res.Stats.BytesSent
	}
	if !(vol[PDMS] < vol[MS] && vol[MS] < vol[MSSimple]) {
		t.Fatalf("volume ordering violated: PDMS=%d MS=%d MS-simple=%d",
			vol[PDMS], vol[MS], vol[MSSimple])
	}
}

// TestCharSamplingReachesPDMS pins that Config.CharSampling switches PDMS
// and PDMS-Golomb to character-based splitter sampling: on the
// CommonCrawl-like and suffix instances the sampling mode must move the
// bucket boundaries — and with them the exchanged volume — while every
// run still sorts correctly.
func TestCharSamplingReachesPDMS(t *testing.T) {
	const p = 8
	instances := map[string]func(pe int) [][]byte{
		"commoncrawl": func(pe int) [][]byte {
			return input.CommonCrawlLike(input.CCConfig{LinesPerPE: 600, Seed: 5}, pe, p)
		},
		"suffix": func(pe int) [][]byte {
			return input.SuffixInstance(input.SuffixConfig{TextLen: 4000, Seed: 5}, pe, p)
		},
	}
	for name, gen := range instances {
		inputs := make([][][]byte, p)
		for pe := range inputs {
			inputs[pe] = gen(pe)
		}
		for _, algo := range []Algorithm{PDMS, PDMSGolomb} {
			var st [2]Stats
			for i, char := range []bool{false, true} {
				res, err := Sort(inputs, Config{
					Algorithm: algo, Seed: 3, CharSampling: char,
					Validate: true, Reconstruct: true,
				})
				if err != nil {
					t.Fatalf("%s %v char=%v: %v", name, algo, char, err)
				}
				var concat [][]byte
				for _, pe := range res.PEs {
					concat = append(concat, pe.Strings...)
				}
				if !strutil.IsSorted(concat) || strutil.MultisetHash(concat) != strutil.MultisetHash(flatten(inputs)) {
					t.Fatalf("%s %v char=%v: output not the sorted input", name, algo, char)
				}
				st[i] = res.Stats
			}
			if st[0].BytesSent == st[1].BytesSent || st[0].MaxBytesRecv == st[1].MaxBytesRecv {
				t.Fatalf("%s %v: CharSampling left the exchange unchanged (bytes sent %d vs %d, max recv %d vs %d)",
					name, algo, st[0].BytesSent, st[1].BytesSent, st[0].MaxBytesRecv, st[1].MaxBytesRecv)
			}
		}
	}
}
