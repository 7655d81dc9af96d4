package merge

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// randomRuns builds k independently sorted runs with correct LCP arrays
// and satellite words.
func randomRuns(rng *rand.Rand, k, maxLen int, sats bool) []Sequence {
	seqs := make([]Sequence, k)
	for i := range seqs {
		n := rng.Intn(maxLen + 1)
		ss := make([][]byte, n)
		for j := range ss {
			l := rng.Intn(12)
			s := make([]byte, l)
			for x := range s {
				s[x] = byte('a' + rng.Intn(3)) // small alphabet: long LCPs, many ties
			}
			ss[j] = s
		}
		sort.Slice(ss, func(a, b int) bool { return bytes.Compare(ss[a], ss[b]) < 0 })
		lcps := make([]int32, n)
		for j := 1; j < n; j++ {
			lcps[j] = lcpOf(ss[j-1], ss[j])
		}
		seqs[i] = Sequence{Strings: ss, LCPs: lcps}
		if sats {
			sv := make([]uint64, n)
			for j := range sv {
				sv[j] = uint64(i)<<32 | uint64(j)
			}
			seqs[i].Sats = sv
		}
	}
	return seqs
}

func lcpOf(a, b []byte) int32 {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return int32(i)
}

func sliceSources(seqs []Sequence) []Source {
	out := make([]Source, len(seqs))
	for i := range seqs {
		out[i] = &SliceSource{Seq: seqs[i]}
	}
	return out
}

func sequencesEqual(t *testing.T, label string, want, got Sequence) {
	t.Helper()
	if len(want.Strings) != len(got.Strings) {
		t.Fatalf("%s: %d strings, want %d", label, len(got.Strings), len(want.Strings))
	}
	for i := range want.Strings {
		if !bytes.Equal(want.Strings[i], got.Strings[i]) {
			t.Fatalf("%s: string %d is %q, want %q", label, i, got.Strings[i], want.Strings[i])
		}
	}
	if (want.LCPs == nil) != (got.LCPs == nil) || len(want.LCPs) != len(got.LCPs) {
		t.Fatalf("%s: LCP array shape differs", label)
	}
	for i := range want.LCPs {
		if want.LCPs[i] != got.LCPs[i] {
			t.Fatalf("%s: LCP %d is %d, want %d", label, i, got.LCPs[i], want.LCPs[i])
		}
	}
	for i := range want.Sats {
		if want.Sats[i] != got.Sats[i] {
			t.Fatalf("%s: sat %d is %d, want %d", label, i, got.Sats[i], want.Sats[i])
		}
	}
}

// TestMergeStreamMatchesEager is the work-count identity differential: the
// streaming tree over SliceSources must reproduce the eager merge exactly
// — strings, LCPs, satellites AND the character-work counter, which the
// model time is computed from — across run counts (including non-power-of-
// two tree paddings), LCP and plain modes, and satellite carriage.
func TestMergeStreamMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(9)
		sats := trial%3 == 0
		seqs := randomRuns(rng, k, 40, sats)

		wantLCP, workLCP := MergeLCP(cloneSeqs(seqs))
		gotLCP, workStreamLCP := MergeStream(sliceSources(seqs), StreamOptions{LCP: true, Sats: sats})
		sequencesEqual(t, "lcp", wantLCP, gotLCP)
		if workLCP != workStreamLCP {
			t.Fatalf("trial %d: LCP work %d, want %d (k=%d)", trial, workStreamLCP, workLCP, k)
		}

		wantPlain, workPlain := Merge(cloneSeqs(seqs))
		gotPlain, workStreamPlain := MergeStream(sliceSources(seqs), StreamOptions{Sats: sats})
		sequencesEqual(t, "plain", Sequence{Strings: wantPlain.Strings, Sats: wantPlain.Sats}, gotPlain)
		if workPlain != workStreamPlain {
			t.Fatalf("trial %d: plain work %d, want %d (k=%d)", trial, workStreamPlain, workPlain, k)
		}
	}
}

// cloneSeqs guards against in-place mutation: the eager and streaming
// merges must both see pristine inputs.
func cloneSeqs(seqs []Sequence) []Sequence {
	out := make([]Sequence, len(seqs))
	copy(out, seqs)
	return out
}

// TestMergeStreamFirstOutputHook pins the merge-start milestone semantics:
// invoked exactly once, before the first output, and never for an empty
// merge.
func TestMergeStreamFirstOutputHook(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seqs := randomRuns(rng, 4, 20, false)
	calls := 0
	out, _ := MergeStream(sliceSources(seqs), StreamOptions{LCP: true, OnFirstOutput: func() { calls++ }})
	if len(out.Strings) > 0 && calls != 1 {
		t.Fatalf("OnFirstOutput called %d times, want 1", calls)
	}
	empty := []Sequence{{}, {}}
	calls = 0
	if out, _ := MergeStream(sliceSources(empty), StreamOptions{OnFirstOutput: func() { calls++ }}); len(out.Strings) != 0 || calls != 0 {
		t.Fatalf("empty merge: %d outputs, %d hook calls", len(out.Strings), calls)
	}
}

// growingSource simulates an incremental run reader: strings materialize
// a few at a time into an append-only arena that REALLOCATES as it grows —
// the exact storage behavior of wire.RunReader. Earlier heads keep pointing
// at the superseded backing arrays, which is legal under the aliasing
// contract (append-only, never overwritten); the merge output must come
// out intact even though the arena moved many times mid-merge. The window
// slices themselves are reused from one Next to the next, as a reader's
// item buffers are.
type growingSource struct {
	encoded [][]byte // the run's strings, copied in lazily
	lcps    []int32
	arena   []byte
	pos     int
	win     Sequence
}

func (g *growingSource) Next() Sequence {
	// Decode on demand: append up to three strings into the shared arena,
	// forcing periodic reallocation (the arena starts tiny and never
	// reserves).
	g.win.Strings, g.win.LCPs = g.win.Strings[:0], g.win.LCPs[:0]
	for n := 1 + g.pos%3; n > 0 && g.pos < len(g.encoded); n-- {
		off := len(g.arena)
		g.arena = append(g.arena, g.encoded[g.pos]...)
		end := len(g.arena)
		g.win.Strings = append(g.win.Strings, g.arena[off:end:end])
		g.win.LCPs = append(g.win.LCPs, g.lcps[g.pos])
		g.pos++
	}
	return g.win
}

// TestMergeStreamAliasingContract enforces the documented Source contract
// end to end: heads that live in append-only arenas stay valid across
// arena growth (reallocation), so the merged output — which aliases the
// heads, exactly like the eager merge aliases its input runs — must be
// byte-identical to the eager reference. This is the latent bug class of
// resumable readers: a source that RECYCLED head storage instead of
// growing it would corrupt the output silently (wire.RunReader's
// no-chunk-aliasing test covers that half).
func TestMergeStreamAliasingContract(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	seqs := randomRuns(rng, 5, 60, false)
	want, _ := MergeLCP(cloneSeqs(seqs))
	srcs := make([]Source, len(seqs))
	for i, s := range seqs {
		srcs[i] = &growingSource{encoded: s.Strings, lcps: s.LCPs, arena: make([]byte, 0, 1)}
	}
	got, _ := MergeStream(srcs, StreamOptions{LCP: true})
	sequencesEqual(t, "aliasing", want, got)
}
