package merge

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dss/internal/par"
)

// prefixRuns builds k sorted runs that stress the character cache: most
// strings extend one long shared prefix (≥ 200 bytes) by a short suffix
// over a tiny alphabet, so curH ties are the rule; the bare prefix and its
// truncations are prefixes of other strings (the −1 cached character);
// the small vocabulary repeats strings within and across runs; and empty
// strings are non-nil, as the wire decoders produce them.
func prefixRuns(rng *rand.Rand, k, maxLen int, sats bool) []Sequence {
	prefix := make([]byte, 200+rng.Intn(64))
	for i := range prefix {
		prefix[i] = byte('a' + rng.Intn(2))
	}
	seqs := make([]Sequence, k)
	for q := range seqs {
		n := rng.Intn(maxLen + 1)
		strs := make([][]byte, n)
		for i := range strs {
			var s []byte
			switch r := rng.Intn(10); {
			case r == 0:
				s = []byte{}
			case r == 1:
				s = append([]byte{}, prefix[:rng.Intn(len(prefix)+1)]...)
			case r == 2:
				s = []byte{byte('a' + rng.Intn(3))}
			default:
				s = append([]byte{}, prefix...)
				for j := rng.Intn(4); j > 0; j-- {
					s = append(s, byte('a'+rng.Intn(2)))
				}
			}
			strs[i] = s
		}
		sortRun(strs)
		seqs[q] = seqFromStrings(strs, sats, uint64(q))
	}
	return seqs
}

// windowSources cuts every run into windows of 1..maxWin strings; each
// window's LCPs[0] is the run's LCP entry (the LCP with the previous
// window's last string).
func windowSources(rng *rand.Rand, seqs []Sequence, maxWin int) []Source {
	srcs := make([]Source, len(seqs))
	for q, s := range seqs {
		var cuts []int
		for i := 0; i < s.Len(); i += 1 + rng.Intn(maxWin) {
			cuts = append(cuts, i)
		}
		srcs[q] = &windowSource{seq: s, cuts: append(cuts, s.Len())}
	}
	return srcs
}

type windowSource struct {
	seq  Sequence
	cuts []int // window starts, then the run's end
	next int
}

func (w *windowSource) Next() Sequence {
	if w.next+1 >= len(w.cuts) {
		return Sequence{}
	}
	lo, hi := w.cuts[w.next], w.cuts[w.next+1]
	w.next++
	win := Sequence{Strings: w.seq.Strings[lo:hi], LCPs: w.seq.LCPs[lo:hi]}
	if w.seq.Sats != nil {
		win.Sats = w.seq.Sats[lo:hi]
	}
	return win
}

// sinkCollect runs the sink merge (through the tree or the oracle) and
// collects its items the way MergeStream does.
func sinkCollect(opt StreamOptions, merge func(Sink) (int64, int64, error)) (Sequence, int64, int64) {
	var out Sequence
	if opt.Sats {
		out.Sats = []uint64{}
	}
	if opt.LCP {
		out.LCPs = []int32{}
	}
	n, work, err := merge(func(s []byte, lcp int32, sat uint64) error {
		out.Strings = append(out.Strings, s)
		if opt.LCP {
			out.LCPs = append(out.LCPs, lcp)
		}
		if opt.Sats {
			out.Sats = append(out.Sats, sat)
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	return out, n, work
}

// checkAgainstOracle runs every front-end of the tree over seqs — the
// sequential merge, the partitioned merge at pool widths 1, 2, 3 and 8
// with parMin 1, and the sink merge over single and cut windows — and
// requires the oracle trees' strings, LCPs, satellites and billed work.
func checkAgainstOracle(t *testing.T, rng *rand.Rand, label string, seqs []Sequence, sats bool) {
	t.Helper()
	for _, useLCP := range []bool{false, true} {
		want, wantWork := oracleMerge(seqs, useLCP)
		mode := fmt.Sprintf("%s lcp=%v sats=%v", label, useLCP, sats)
		var got Sequence
		var gotWork int64
		if useLCP {
			got, gotWork = MergeLCP(seqs)
		} else {
			got, gotWork = Merge(seqs)
		}
		requireEqualMerge(t, mode+" eager", want, got, wantWork, gotWork)
		for _, width := range []int{1, 2, 3, 8} {
			pool := par.New(width)
			if useLCP {
				got, gotWork, _ = MergeLCPPar(pool, seqs, 1)
			} else {
				got, gotWork, _ = MergePar(pool, seqs, 1)
			}
			requireEqualMerge(t, fmt.Sprintf("%s width=%d", mode, width), want, got, wantWork, gotWork)
		}

		opt := StreamOptions{LCP: useLCP, Sats: sats}
		osrcs := make([]oracleSource, len(seqs))
		for q := range seqs {
			osrcs[q] = &oracleSliceSource{Seq: seqs[q]}
		}
		wantSink, wantN, wantSinkWork := sinkCollect(opt, func(s Sink) (int64, int64, error) {
			return oracleMergeStreamSink(osrcs, opt, s)
		})
		if wantSinkWork != wantWork {
			t.Fatalf("%s: oracle sink work %d, oracle eager %d", mode, wantSinkWork, wantWork)
		}
		for _, win := range []int{0, 1, 3} {
			srcs := sliceSources(seqs)
			if win > 0 {
				srcs = windowSources(rng, seqs, win)
			}
			gotSink, gotN, gotSinkWork := sinkCollect(opt, func(s Sink) (int64, int64, error) {
				return MergeStreamSink(srcs, opt, s)
			})
			l := fmt.Sprintf("%s sink window=%d", mode, win)
			if gotN != wantN {
				t.Fatalf("%s: %d items, want %d", l, gotN, wantN)
			}
			requireEqualMerge(t, l, wantSink, gotSink, wantSinkWork, gotSinkWork)
		}
	}
}

// TestTreeMatchesOracle pins the character-caching tree to the two trees
// it replaced, across run counts on both sides of the power-of-two
// paddings, plain and LCP mode, with and without satellites.
func TestTreeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17} {
		for trial := 0; trial < 6; trial++ {
			sats := trial%2 == 1
			var seqs []Sequence
			if trial < 4 {
				seqs = prefixRuns(rng, k, 40, sats)
			} else {
				seqs = genSeqs(rng, k, 40, sats)
			}
			checkAgainstOracle(t, rng, fmt.Sprintf("k=%d trial=%d", k, trial), seqs, sats)
		}
	}
}

// FuzzTreeMatchesOracle slices arbitrary bytes into up to 17 sorted runs,
// optionally behind a long shared prefix, and requires every front-end of
// the tree to reproduce the oracle trees.
func FuzzTreeMatchesOracle(f *testing.F) {
	f.Add([]byte("ab\x00abc\x01b\x02"), uint8(3), uint8(0))
	f.Add([]byte("\x00\x00\x01aaaa\x02aaab"), uint8(16), uint8(3))
	f.Add([]byte("aaaaaaaaab"), uint8(8), uint8(2))
	f.Add([]byte("x"), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, kRaw, flags uint8) {
		k := 1 + int(kRaw)%17
		sats := flags&1 != 0
		var prefix []byte
		if flags&2 != 0 {
			prefix = bytes.Repeat([]byte{'p'}, 200+int(flags>>2))
		}
		runs := make([][][]byte, k)
		for i, b := range data {
			q := int(b+byte(i)) % k
			s := append(append([]byte{}, prefix...), data[i:i+min(len(data)-i, int(b)%7)]...)
			if b%5 == 0 {
				s = s[:len(s)/2] // a prefix of its neighbours
			}
			runs[q] = append(runs[q], s)
		}
		seqs := make([]Sequence, k)
		for q := range runs {
			sortRun(runs[q])
			seqs[q] = seqFromStrings(runs[q], sats, uint64(q))
		}
		checkAgainstOracle(t, rand.New(rand.NewSource(int64(len(data)))), "fuzz", seqs, sats)
	})
}

// TestMergeNilStringInRun is the regression test of the nil-head bug: a
// nil (empty) string inside a run is a string like any other, not the end
// of the run. Exhaustion is tracked by position, so every merge front-end
// emits it first and keeps the rest of its run.
func TestMergeNilStringInRun(t *testing.T) {
	seqs := []Sequence{
		{Strings: [][]byte{nil, []byte("b")}, LCPs: []int32{0, 0}, Sats: []uint64{0, 1}},
		{Strings: [][]byte{[]byte("a")}, LCPs: []int32{0}, Sats: []uint64{2}},
	}
	want := []string{"", "a", "b"}
	wantSats := []uint64{0, 2, 1}
	check := func(label string, got Sequence) {
		t.Helper()
		if len(got.Strings) != len(want) {
			t.Fatalf("%s: %q, want %q", label, got.Strings, want)
		}
		for i := range want {
			if string(got.Strings[i]) != want[i] || got.Sats[i] != wantSats[i] {
				t.Fatalf("%s: %q sats %v, want %q sats %v", label, got.Strings, got.Sats, want, wantSats)
			}
		}
	}
	for _, useLCP := range []bool{false, true} {
		mode := fmt.Sprintf("lcp=%v", useLCP)
		if useLCP {
			got, _ := MergeLCP(seqs)
			check(mode+" eager", got)
		} else {
			got, _ := Merge(seqs)
			check(mode+" eager", got)
		}
		for _, width := range []int{2, 3} {
			var got Sequence
			if useLCP {
				got, _, _ = MergeLCPPar(par.New(width), seqs, 1)
			} else {
				got, _, _ = MergePar(par.New(width), seqs, 1)
			}
			check(fmt.Sprintf("%s width=%d", mode, width), got)
		}
		opt := StreamOptions{LCP: useLCP, Sats: true}
		got, _ := MergeStream(sliceSources(seqs), opt)
		check(mode+" stream", got)
		got, _, _ = sinkCollect(opt, func(s Sink) (int64, int64, error) {
			return MergeStreamSink(sliceSources(seqs), opt, s)
		})
		check(mode+" sink", got)
	}
}
