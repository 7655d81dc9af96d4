package input

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// TestLineReaderMatchesSplit feeds files of varying shapes through the
// chunked reader at several chunk sizes and checks the line sequence is
// exactly the newline split, with every chunk arena within bound (except a
// single oversized line, which is allowed to travel alone).
func TestLineReaderMatchesSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	files := []string{
		"",
		"\n",
		"a",
		"a\n",
		"a\nbb\nccc\n",
		"a\n\nb\n",                              // empty interior line survives
		strings.Repeat("x", 5000) + "\nshort\n", // line larger than any chunk
	}
	// A bigger random file: lines of length 0..80.
	var big strings.Builder
	for i := 0; i < 2000; i++ {
		for k := rng.Intn(81); k > 0; k-- {
			big.WriteByte(byte('a' + rng.Intn(26)))
		}
		big.WriteByte('\n')
	}
	files = append(files, big.String())

	for fi, file := range files {
		want := strings.Split(file, "\n")
		if len(want) > 0 && want[len(want)-1] == "" && file != "" {
			want = want[:len(want)-1] // trailing newline is a terminator, not an empty line
		}
		if file == "" {
			want = nil
		}
		for _, chunk := range []int{1, 7, 64, 1024, 1 << 20} {
			lr := NewLineReader(strings.NewReader(file), chunk)
			var got []string
			for {
				lines, err := lr.Next()
				if err != nil {
					t.Fatalf("file %d chunk %d: %v", fi, chunk, err)
				}
				if lines == nil {
					break
				}
				total := 0
				oversize := false
				for _, l := range lines {
					got = append(got, string(l))
					total += len(l)
					if len(l) > chunk {
						oversize = true
					}
				}
				if total > chunk && !(oversize && len(lines) == 1) {
					t.Fatalf("file %d chunk %d: arena %d bytes over bound with %d lines",
						fi, chunk, total, len(lines))
				}
			}
			if len(got) != len(want) {
				t.Fatalf("file %d chunk %d: got %d lines, want %d", fi, chunk, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("file %d chunk %d line %d: got %q want %q", fi, chunk, i, got[i], want[i])
				}
			}
		}
	}
}

// TestLineReaderReadAll checks the drain helper against a direct split.
func TestLineReaderReadAll(t *testing.T) {
	file := "one\ntwo\nthree"
	all, err := NewLineReader(strings.NewReader(file), 4).ReadAllLines()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"one", "two", "three"}
	if len(all) != len(want) {
		t.Fatalf("got %d lines, want %d", len(all), len(want))
	}
	for i := range want {
		if string(all[i]) != want[i] {
			t.Fatalf("line %d: got %q want %q", i, all[i], want[i])
		}
	}
}

// TestBatchesStridedEquivalence checks that streaming the DN instance over
// virtual PEs emits exactly the monolithic instance's string multiset (DN
// assigns strings by stride, so the union over batches is the p=1 set).
func TestBatchesStridedEquivalence(t *testing.T) {
	const n, batchCount = 120, 6
	mono := DN(DNConfig{StringsPerPE: n, Length: 40, Ratio: 0.5, Seed: 3}, 0, 1)

	gen := func(pe, p int) [][]byte {
		return DN(DNConfig{StringsPerPE: n / batchCount, Length: 40, Ratio: 0.5, Seed: 3}, pe, p)
	}
	var streamed [][]byte
	batches := 0
	err := Batches(gen, batchCount, func(ss [][]byte) error {
		if len(ss) != n/batchCount {
			t.Fatalf("batch of %d strings, want %d", len(ss), n/batchCount)
		}
		streamed = append(streamed, ss...)
		batches++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if batches != batchCount {
		t.Fatalf("emit called %d times, want %d", batches, batchCount)
	}
	if len(streamed) != len(mono) {
		t.Fatalf("streamed %d strings, want %d", len(streamed), len(mono))
	}
	count := map[string]int{}
	for _, s := range mono {
		count[string(s)]++
	}
	for _, s := range streamed {
		count[string(s)]--
		if count[string(s)] < 0 {
			t.Fatalf("streamed string %q not in monolithic instance", s)
		}
	}
	for s, c := range count {
		if c != 0 {
			t.Fatalf("monolithic string %q missing from stream (count %d)", s, c)
		}
	}
	// And the strided order is a permutation, not the identity: the modes
	// genuinely differ in emission order.
	if bytes.Equal(streamed[1], mono[1]) && bytes.Equal(streamed[2], mono[2]) {
		t.Fatalf("streamed order unexpectedly identical to monolithic order")
	}
}
