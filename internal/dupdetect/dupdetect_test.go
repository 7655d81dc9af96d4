package dupdetect

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dss/internal/comm"
	"dss/internal/fingerprint"
	"dss/internal/golomb"
	"dss/internal/input"
	"dss/internal/stats"
	"dss/internal/strutil"
	"dss/internal/wire"
)

// runApprox distributes the global string set over p PEs round-robin, runs
// ApproxDist collectively and returns the per-string bounds in global order
// plus the machine for volume inspection.
func runApprox(t *testing.T, global [][]byte, p int, opt Options) ([]int32, *comm.Machine) {
	t.Helper()
	m := comm.New(p)
	dist := make([]int32, len(global))
	locals := make([][][]byte, p)
	idxs := make([][]int, p)
	for i, s := range global {
		pe := i % p
		locals[pe] = append(locals[pe], s)
		idxs[pe] = append(idxs[pe], i)
	}
	err := m.Run(func(c *comm.Comm) error {
		res := ApproxDist(c, locals[c.Rank()], opt)
		if len(res.Dist) != len(locals[c.Rank()]) {
			return fmt.Errorf("got %d bounds for %d strings", len(res.Dist), len(locals[c.Rank()]))
		}
		for j, d := range res.Dist {
			dist[idxs[c.Rank()][j]] = d
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dist, m
}

// checkSound verifies the two soundness properties of the approximation:
// bounds never exceed string lengths, and transmitting Dist[i] characters
// preserves the pairwise order of all distinct strings.
func checkSound(t *testing.T, global [][]byte, dist []int32) {
	t.Helper()
	for i, s := range global {
		if int(dist[i]) > len(s) {
			t.Fatalf("bound %d exceeds length of %q", dist[i], s)
		}
	}
	for i := range global {
		for j := range global {
			if i == j {
				continue
			}
			a, b := global[i], global[j]
			pa, pb := a[:dist[i]], b[:dist[j]]
			cmpFull := bytes.Compare(a, b)
			cmpPref := bytes.Compare(pa, pb)
			if cmpFull != 0 && cmpPref != 0 && cmpFull != cmpPref {
				t.Fatalf("prefixes invert order: %q(%d) vs %q(%d)", a, dist[i], b, dist[j])
			}
			if cmpFull != 0 && cmpPref == 0 && !bytes.Equal(a, b) {
				// Distinct strings may only tie if one prefix pair is a
				// cut-short representation — which must not happen when
				// fingerprints are collision-free: a unique prefix cannot
				// equal another string's transmitted prefix of equal length.
				t.Fatalf("distinct strings %q, %q tie under prefixes %q, %q", a, b, pa, pb)
			}
		}
	}
}

func genStrings(rng *rand.Rand, n, maxLen, sigma int) [][]byte {
	ss := make([][]byte, n)
	for i := range ss {
		l := rng.Intn(maxLen + 1)
		s := make([]byte, l)
		for j := range s {
			s[j] = byte('a' + rng.Intn(sigma))
		}
		ss[i] = s
	}
	return ss
}

func TestApproxDistSoundRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, p := range []int{1, 2, 3, 5, 8} {
		for trial := 0; trial < 4; trial++ {
			global := genStrings(rng, 60, 24, 2)
			dist, _ := runApprox(t, global, p, Options{GroupID: 1})
			checkSound(t, global, dist)
		}
	}
}

func TestApproxDistUpperBoundsTrueDist(t *testing.T) {
	// With collision-free fingerprints, Dist[i] >= min(DIST(s_i), |s_i|):
	// the bound can only overestimate.
	rng := rand.New(rand.NewSource(52))
	global := genStrings(rng, 200, 30, 3)
	trueDist := strutil.DistinguishingPrefixes(global)
	dist, _ := runApprox(t, global, 4, Options{GroupID: 1})
	for i := range global {
		if dist[i] < trueDist[i] {
			t.Fatalf("bound %d below true DIST %d for %q", dist[i], trueDist[i], global[i])
		}
	}
}

func TestApproxDistTightForUniquePrefixes(t *testing.T) {
	// Strings diverging in the first 8 characters must resolve in the very
	// first round with the default initial guess.
	var global [][]byte
	for i := 0; i < 64; i++ {
		s := append([]byte{byte('A' + i/8), byte('a' + i%8)}, bytes.Repeat([]byte("tail"), 16)...)
		global = append(global, s)
	}
	dist, _ := runApprox(t, global, 4, Options{GroupID: 1, InitialLen: 8})
	for i, d := range dist {
		if d != 8 {
			t.Fatalf("string %d: bound %d, want 8 (first-round resolution)", i, d)
		}
	}
}

func TestApproxDistExactDuplicates(t *testing.T) {
	// Full duplicates can never get a unique fingerprint; they must resolve
	// by the length rule with bound |s|.
	global := [][]byte{
		[]byte("duplicate-string"), []byte("duplicate-string"),
		[]byte("duplicate-string"), []byte("unique-string-xx"),
	}
	dist, _ := runApprox(t, global, 2, Options{GroupID: 1})
	for i := 0; i < 3; i++ {
		if int(dist[i]) != len(global[i]) {
			t.Fatalf("duplicate %d: bound %d, want full length %d", i, dist[i], len(global[i]))
		}
	}
	checkSound(t, global, dist)
}

func TestApproxDistPrefixChain(t *testing.T) {
	// s_k = "a"*k: every string is a prefix of the next; all must be sent
	// in full (their ends are their only distinguishers).
	var global [][]byte
	for k := 0; k <= 20; k++ {
		global = append(global, bytes.Repeat([]byte("a"), k))
	}
	dist, _ := runApprox(t, global, 3, Options{GroupID: 1})
	for i, s := range global {
		if int(dist[i]) != len(s) {
			t.Fatalf("chain string %d: bound %d, want %d", i, dist[i], len(s))
		}
	}
	checkSound(t, global, dist)
}

func TestApproxDistEmptyInput(t *testing.T) {
	m := comm.New(3)
	err := m.Run(func(c *comm.Comm) error {
		res := ApproxDist(c, nil, Options{GroupID: 1})
		if len(res.Dist) != 0 {
			return fmt.Errorf("bounds for empty input")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestApproxDistLongSharedPrefixNeedsIterations(t *testing.T) {
	// Two strings sharing 1000 characters force the doubling loop deep.
	a := append(bytes.Repeat([]byte("z"), 1000), 'a')
	b := append(bytes.Repeat([]byte("z"), 1000), 'b')
	global := [][]byte{a, b}
	dist, _ := runApprox(t, global, 2, Options{GroupID: 1})
	checkSound(t, global, dist)
	for i, d := range dist {
		if int(d) < 1001 {
			t.Fatalf("string %d: bound %d too small (prefixes equal up to 1000)", i, d)
		}
	}
}

func TestApproxDistDoublingBoundedOvershoot(t *testing.T) {
	// With ε=1 (doubling) the bound is below 2·DIST for strings resolved by
	// uniqueness (geometric overshoot), modulo the initial guess.
	rng := rand.New(rand.NewSource(53))
	var global [][]byte
	for i := 0; i < 100; i++ {
		// ~64-character shared prefix region, then unique tails.
		s := append(bytes.Repeat([]byte("q"), 64), []byte(fmt.Sprintf("%06d", i))...)
		global = append(global, s)
		_ = rng
	}
	trueDist := strutil.DistinguishingPrefixes(global)
	dist, _ := runApprox(t, global, 4, Options{GroupID: 1, InitialLen: 8})
	for i := range global {
		if int(dist[i]) > 2*int(trueDist[i])+8 && int(dist[i]) != len(global[i]) {
			t.Fatalf("string %d: bound %d overshoots true DIST %d by more than 2×",
				i, dist[i], trueDist[i])
		}
	}
}

func TestGolombVariantAgreesAndSavesVolume(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	global := genStrings(rng, 4000, 40, 2)
	plain, mPlain := runApprox(t, global, 8, Options{GroupID: 1})
	gol, mGol := runApprox(t, global, 8, Options{GroupID: 1, Golomb: true})
	for i := range plain {
		if plain[i] != gol[i] {
			t.Fatalf("Golomb variant changed bound %d: %d vs %d", i, gol[i], plain[i])
		}
	}
	vPlain := mPlain.Report().TotalBytesSent()
	vGol := mGol.Report().TotalBytesSent()
	if vGol >= vPlain {
		t.Fatalf("Golomb coding did not reduce volume: %d vs %d", vGol, vPlain)
	}
}

func TestTwoLevelFingerprintsSoundAndCheaper(t *testing.T) {
	// Two-level fingerprinting pays when most prefixes per round are
	// unique (its design assumption in [10]): a moderately large alphabet
	// makes first-round prefixes mostly distinct.
	rng := rand.New(rand.NewSource(57))
	global := genStrings(rng, 6000, 30, 8)
	plain, mPlain := runApprox(t, global, 8, Options{GroupID: 1})
	two, mTwo := runApprox(t, global, 8, Options{GroupID: 1, TwoLevel: true})
	checkSound(t, global[:80], two[:80]) // spot-check soundness (O(n²) check)
	// Two-level bounds may differ (32-bit collisions delay some strings by
	// one doubling), but must stay sound upper bounds of the plain bounds'
	// guarantees: never smaller than the true DIST.
	trueDist := strutil.DistinguishingPrefixes(global)
	for i := range two {
		if two[i] < trueDist[i] {
			t.Fatalf("two-level bound %d below true DIST %d", two[i], trueDist[i])
		}
	}
	_ = plain
	vPlain := mPlain.Report().TotalBytesSent()
	vTwo := mTwo.Report().TotalBytesSent()
	if vTwo >= vPlain {
		t.Fatalf("two-level fingerprints did not save volume: %d vs %d", vTwo, vPlain)
	}
}

func TestHypercubeRoutingTradesLatencyForVolume(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	global := genStrings(rng, 4000, 25, 2)
	direct, mDirect := runApprox(t, global, 8, Options{GroupID: 1})
	hyper, mHyper := runApprox(t, global, 8, Options{GroupID: 1, Hypercube: true})
	for i := range direct {
		if direct[i] != hyper[i] {
			t.Fatalf("hypercube routing changed bound %d: %d vs %d", i, hyper[i], direct[i])
		}
	}
	// Fewer messages per PE, more volume (store-and-forward).
	msgsD := mDirect.Report().PEs[0].Total().Messages
	msgsH := mHyper.Report().PEs[0].Total().Messages
	if msgsH >= msgsD {
		t.Fatalf("hypercube routing sent %d msgs/PE, direct %d", msgsH, msgsD)
	}
	if mHyper.Report().TotalBytesSent() <= mDirect.Report().TotalBytesSent() {
		t.Fatal("hypercube routing should cost volume")
	}
}

func TestHypercubeFallbackNonPowerOfTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	global := genStrings(rng, 500, 15, 2)
	dist, _ := runApprox(t, global, 5, Options{GroupID: 1, Hypercube: true})
	checkSound(t, global, dist)
}

func TestEpsilonGrowthFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	global := genStrings(rng, 300, 50, 2)
	for _, eps := range []float64{0.5, 1, 2, 3} {
		dist, _ := runApprox(t, global, 4, Options{GroupID: 1, Eps: eps})
		checkSound(t, global, dist)
	}
}

func TestVolumePerStringLogarithmic(t *testing.T) {
	// Theorem 6: the duplicate detection sends O(log p) bits per string.
	// With 64-bit fingerprints our constant is 8 bytes + verdict bit per
	// round; with few rounds volume per string must stay small.
	rng := rand.New(rand.NewSource(56))
	n := 8000
	global := make([][]byte, n)
	for i := range global {
		global[i] = []byte(fmt.Sprintf("%08d-%08d", rng.Intn(1000000), i))
	}
	_, m := runApprox(t, global, 8, Options{GroupID: 1})
	perString := float64(m.Report().TotalBytesSent()) / float64(n)
	if perString > 40 {
		t.Fatalf("duplicate detection sends %.1f bytes/string; want ≤ 40", perString)
	}
}

// dealRoundRobin splits a global string set over p PEs, string i to PE i mod p.
func dealRoundRobin(global [][]byte, p int) [][][]byte {
	locals := make([][][]byte, p)
	for i, s := range global {
		locals[i%p] = append(locals[i%p], s)
	}
	return locals
}

// runPerPE runs approx collectively on the given per-PE string sets and
// returns each PE's result and the machine's report.
func runPerPE(t *testing.T, locals [][][]byte, opt Options,
	approx func(*comm.Comm, [][]byte, Options) Result) ([]Result, *stats.Report) {
	t.Helper()
	m := comm.New(len(locals))
	res := make([]Result, len(locals))
	err := m.Run(func(c *comm.Comm) error {
		res[c.Rank()] = approx(c, locals[c.Rank()], opt)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, m.Report()
}

// TestApproxDistMatchesMapOracle pins the sort-merge rounds to the
// map-based algorithm they replaced: the same bounds, iteration and
// resolution counts on every PE, and the same bytes, messages and work
// billed to every PE, for every message format and routing.
func TestApproxDistMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	var chain, dups [][]byte
	for k := 0; k <= 40; k++ {
		chain = append(chain, bytes.Repeat([]byte("a"), k), bytes.Repeat([]byte("a"), k/2))
	}
	for i := 0; i < 120; i++ {
		dups = append(dups, []byte(fmt.Sprintf("duplicate-%d", i%5)))
	}
	inputs := []struct {
		name   string
		locals func(p int) [][][]byte
	}{
		{"random", func(p int) [][][]byte { return dealRoundRobin(genStrings(rng, 400, 24, 3), p) }},
		{"commoncrawl", func(p int) [][][]byte {
			locals := make([][][]byte, p)
			for pe := range locals {
				locals[pe] = input.CommonCrawlLike(input.CCConfig{LinesPerPE: 150, Seed: 61}, pe, p)
			}
			return locals
		}},
		{"prefix-chain", func(p int) [][][]byte { return dealRoundRobin(chain, p) }},
		{"duplicates", func(p int) [][][]byte { return dealRoundRobin(dups, p) }},
	}
	modes := []struct {
		name string
		opt  Options
	}{
		{"raw", Options{}},
		{"golomb", Options{Golomb: true}},
		{"twolevel", Options{TwoLevel: true}},
		{"twolevel-golomb", Options{TwoLevel: true, Golomb: true}},
		// Hypercube routing at p = 3 and 5 falls back to direct delivery.
		{"hypercube", Options{Hypercube: true, Golomb: true}},
	}
	for _, in := range inputs {
		for _, p := range []int{1, 2, 3, 5, 8} {
			locals := in.locals(p)
			for _, mode := range modes {
				t.Run(fmt.Sprintf("%s/p%d/%s", in.name, p, mode.name), func(t *testing.T) {
					opt := mode.opt
					opt.GroupID, opt.Seed = 1, 62
					got, gotRep := runPerPE(t, locals, opt, ApproxDist)
					want, wantRep := runPerPE(t, locals, opt, oracleApproxDist)
					for pe := range got {
						if !reflect.DeepEqual(got[pe], want[pe]) {
							t.Fatalf("PE %d: result %+v, oracle %+v", pe, got[pe], want[pe])
						}
						if g, w := gotRep.PEs[pe].Phases, wantRep.PEs[pe].Phases; g != w {
							t.Fatalf("PE %d: counters %+v, oracle %+v", pe, g, w)
						}
					}
				})
			}
		}
	}
}

// TestUnsortedRunPanics feeds a round's receiving side one sorted and one
// out-of-order fingerprint run: the multiplicity merge needs sorted runs,
// so the round must reject the message rather than miscount.
func TestUnsortedRunPanics(t *testing.T) {
	// Count 2, M = 1, first value 2^64-1, then a gap of 1 (unary "10"):
	// the second value wraps around to 0.
	golombWrap := binary.AppendUvarint(nil, 2)
	golombWrap = binary.AppendUvarint(golombWrap, 1)
	golombWrap = binary.AppendUvarint(golombWrap, math.MaxUint64)
	golombWrap = append(golombWrap, 0x80)
	cases := []struct {
		name      string
		ro        roundOpts
		ok, wrong []byte
	}{
		{"raw", roundOpts{}, wire.EncodeUint64sFixed([]uint64{1, 3}), wire.EncodeUint64sFixed([]uint64{5, 3})},
		{"short", roundOpts{short: true}, wire.EncodeUint32sFixed([]uint64{1, 3}), wire.EncodeUint32sFixed([]uint64{5, 3})},
		{"golomb-wrap", roundOpts{golomb: true}, golomb.EncodeSorted([]uint64{1, 3}), golombWrap},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "dupdetect: corrupt fingerprint message") {
					t.Fatalf("panic %q, want a corrupt fingerprint message", msg)
				}
			}()
			new(rounds).verdicts([][]byte{tc.ok, tc.wrong}, tc.ro)
		})
	}
}

// BenchmarkApproxDist times the whole prefix doubling on the perfbench
// cc-pdms-tcp input (CommonCrawl-like lines, 2 PEs × 200k) in each
// message format; ns/str is per input string.
func BenchmarkApproxDist(b *testing.B) {
	const p, perPE = 2, 200_000
	locals := make([][][]byte, p)
	for pe := range locals {
		locals[pe] = input.CommonCrawlLike(input.CCConfig{LinesPerPE: perPE, Seed: 1}, pe, p)
	}
	modes := []struct {
		name string
		opt  Options
	}{
		{"Golomb", Options{Golomb: true}},
		{"raw", Options{}},
		{"TwoLevel", Options{TwoLevel: true}},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				m := comm.New(p)
				if err := m.Run(func(c *comm.Comm) error {
					ApproxDist(c, locals[c.Rank()], mode.opt)
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*p*perPE), "ns/str")
		})
	}
}

// oracleApproxDist is ApproxDist as it was before the sort-merge rounds:
// per-round maps for the verdicts, perDest append growth, sort.Slice on the
// Golomb path only, and a map counting the received fingerprints. The
// equivalence test runs it as the reference.
func oracleApproxDist(c *comm.Comm, ss [][]byte, opt Options) Result {
	opt.setDefaults()
	prevPhase := c.SetPhase(stats.PhaseDupDetect)
	defer c.SetPhase(prevPhase)

	p := c.P()
	g := comm.NewGroup(c, allRanks(p), opt.GroupID)
	hasher := fingerprint.New(opt.Seed)

	n := len(ss)
	res := Result{Dist: make([]int32, n)}
	states := make([]fingerprint.State, n)
	candidates := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		candidates = append(candidates, int32(i))
	}

	ell := opt.InitialLen
	for {
		// Global termination check.
		remaining := g.AllreduceUint64([]uint64{uint64(len(candidates))}, comm.Sum)[0]
		if remaining == 0 {
			break
		}
		res.Iterations++

		// Fingerprint the length-ℓ prefixes, extending incrementally.
		// A string shorter than ℓ participates one final time with a
		// *terminated* fingerprint — it must keep blocking longer strings
		// that have it as a proper prefix (in the paper's model the
		// 0-terminator is a real character) — and then resolves with bound
		// |s| regardless of the verdict: transmitting the whole string is
		// always sufficient, duplicates included.
		lengthResolve := make(map[int32]bool)
		allReqs := make([]req, 0, len(candidates))
		for _, ci := range candidates {
			// Strictly shorter than ℓ: the guess has grown past the end of
			// the string, so the "prefix" includes the terminator. At
			// exactly ℓ == |s| the prefix is the whole string WITHOUT the
			// terminator and must collide with equal-length prefixes of
			// longer strings.
			var fp uint64
			if n := len(ss[ci]); n < ell {
				prevPos := states[ci].Pos()
				states[ci] = hasher.Extend(states[ci], ss[ci], n)
				c.AddWork(int64(n - prevPos))
				fp = hasher.FinalizeTerminated(states[ci])
				lengthResolve[ci] = true
			} else {
				prevPos := states[ci].Pos()
				states[ci] = hasher.Extend(states[ci], ss[ci], ell)
				c.AddWork(int64(ell - prevPos)) // only fresh characters are hashed
				fp = hasher.Finalize(states[ci])
			}
			allReqs = append(allReqs, req{cand: ci, fp: fp})
		}

		// Uniqueness check, optionally in two fingerprint resolutions:
		// a cheap 32-bit round first, then a full 64-bit round for the
		// candidates whose short fingerprint collided.
		var uniqueCands map[int32]bool
		if opt.TwoLevel {
			shortUnique := oracleUniqueRound(g, p, allReqs, roundOpts{short: true, hyper: opt.Hypercube})
			var recheck []req
			uniqueCands = make(map[int32]bool, len(shortUnique))
			for _, r := range allReqs {
				if shortUnique[r.cand] {
					uniqueCands[r.cand] = true
				} else {
					recheck = append(recheck, r)
				}
			}
			longUnique := oracleUniqueRound(g, p, recheck, roundOpts{golomb: opt.Golomb, hyper: opt.Hypercube})
			for cand := range longUnique {
				uniqueCands[cand] = true
			}
		} else {
			uniqueCands = oracleUniqueRound(g, p, allReqs, roundOpts{golomb: opt.Golomb, hyper: opt.Hypercube})
		}

		// Resolve candidates: unique fingerprints prove distinguishing
		// prefixes; strings shorter than ℓ resolve with their full length
		// after their terminated blocking round.
		live := candidates[:0]
		for _, ci := range candidates {
			switch {
			case lengthResolve[ci]:
				res.Dist[ci] = int32(len(ss[ci]))
				res.ResolvedLength++
			case uniqueCands[ci]:
				res.Dist[ci] = int32(ell)
				res.ResolvedUnique++
			default:
				live = append(live, ci)
			}
		}
		candidates = live

		// Grow the guess geometrically.
		next := int(float64(ell) * (1 + opt.Eps))
		if next <= ell {
			next = ell + 1
		}
		ell = next
	}
	return res
}

// oracleUniqueRound routes each request's fingerprint to PE (fp mod p), counts
// global multiplicities there, and returns the set of candidates whose
// fingerprint is globally unique. One collective call per PE.
func oracleUniqueRound(g *comm.Group, p int, reqs []req, ro roundOpts) map[int32]bool {
	// Short rounds count by the upper 32 bits (well-mixed by the
	// finalizer); routing must use the same value so all copies of a
	// fingerprint meet at the same PE.
	perDest := make([][]req, p)
	for _, r := range reqs {
		fp := r.fp
		if ro.short {
			fp >>= 32
		}
		d := int(fp % uint64(p))
		perDest[d] = append(perDest[d], req{cand: r.cand, fp: fp})
	}

	exchange := func(parts [][]byte) [][]byte {
		if ro.hyper && p&(p-1) == 0 {
			return g.AlltoallvHypercube(parts)
		}
		return g.Alltoallv(parts)
	}

	parts := make([][]byte, p)
	for d := 0; d < p; d++ {
		fps := make([]uint64, len(perDest[d]))
		for j, r := range perDest[d] {
			fps[j] = r.fp
		}
		switch {
		case ro.golomb:
			sort.Slice(perDest[d], func(a, b int) bool { return perDest[d][a].fp < perDest[d][b].fp })
			for j, r := range perDest[d] {
				fps[j] = r.fp
			}
			parts[d] = golomb.EncodeSorted(fps)
		case ro.short:
			parts[d] = wire.EncodeUint32sFixed(fps)
		default:
			parts[d] = wire.EncodeUint64sFixed(fps)
		}
	}
	recvd := exchange(parts)

	counts := make(map[uint64]int)
	decoded := make([][]uint64, p)
	for src := 0; src < p; src++ {
		var fps []uint64
		var err error
		switch {
		case ro.golomb:
			fps, err = golomb.DecodeSorted(recvd[src])
		case ro.short:
			fps, err = wire.DecodeUint32sFixed(recvd[src])
		default:
			fps, err = wire.DecodeUint64sFixed(recvd[src])
		}
		if err != nil {
			panic("dupdetect: corrupt fingerprint message: " + err.Error())
		}
		decoded[src] = fps
		for _, fp := range fps {
			counts[fp]++
		}
	}

	replies := make([][]byte, p)
	for src := 0; src < p; src++ {
		bits := make([]bool, len(decoded[src]))
		for j, fp := range decoded[src] {
			bits[j] = counts[fp] == 1
		}
		replies[src] = wire.EncodeBitset(bits)
	}
	verdicts := exchange(replies)

	unique := make(map[int32]bool)
	for d := 0; d < p; d++ {
		bits, err := wire.DecodeBitset(verdicts[d])
		if err != nil || len(bits) != len(perDest[d]) {
			panic("dupdetect: corrupt verdict message")
		}
		for j, r := range perDest[d] {
			if bits[j] {
				unique[r.cand] = true
			}
		}
	}
	return unique
}
