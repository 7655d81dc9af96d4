// Package dupdetect implements the communication-efficient distributed
// duplicate detection of [Sanders, Schlag, Müller 2013] applied to
// geometrically growing string prefixes — Step (1+ε) of Algorithm PDMS
// (Section VI-A of the paper, Theorem 6).
//
// For every local string the algorithm computes an upper bound on its
// distinguishing prefix length DIST(s): starting from an initial guess ℓ,
// each iteration fingerprints the length-ℓ prefix of every unresolved
// string, routes the fingerprints to PE (fp mod p), counts global
// multiplicities, and reports back which fingerprints are globally unique.
// A unique fingerprint proves the prefix has no duplicate anywhere, so the
// prefix is distinguishing and the string is resolved with bound ℓ. Errors
// are one-sided: a hash collision can only make a distinct prefix look
// duplicated, which grows the bound (safe), never shrinks it.
//
// Strings shorter than ℓ are resolved with bound |s|: transmitting the
// whole string (whose end acts as a terminator) always suffices to order
// it against any other string, duplicates included.
package dupdetect

import (
	"errors"
	"slices"

	"dss/internal/comm"
	"dss/internal/fingerprint"
	"dss/internal/golomb"
	"dss/internal/stats"
	"dss/internal/wire"
)

// Options control the prefix doubling loop.
type Options struct {
	// Eps is the geometric growth factor: the prefix guess is multiplied by
	// 1+Eps each iteration. The default 1 gives prefix doubling (the "PD"
	// in PDMS).
	Eps float64
	// InitialLen is the first prefix length guess ℓ₀ (paper:
	// Θ(⌈log p / log σ⌉)). Default 8.
	InitialLen int
	// Golomb enables Golomb coding of the sorted fingerprint messages
	// (algorithm PDMS-Golomb). Without it fingerprints travel as raw
	// 8-byte values.
	Golomb bool
	// TwoLevel enables the two-round fingerprinting of [Sanders, Schlag,
	// Müller 2013]: each iteration first exchanges short 32-bit
	// fingerprints; only the (few) candidates whose short fingerprint
	// collides are re-checked with full 64-bit fingerprints in a second
	// exchange. Cuts fingerprint volume roughly in half when most prefixes
	// are unique. Errors remain one-sided.
	TwoLevel bool
	// Hypercube routes the fingerprint all-to-alls indirectly along a
	// hypercube: latency drops from αp to α·log p per iteration at the
	// price of a log p factor in fingerprint volume (the Theorem 6 latency
	// variant). Requires a power-of-two machine; otherwise direct delivery
	// is used.
	Hypercube bool
	// Seed selects the fingerprint hash function.
	Seed uint64
	// GroupID is the communicator tag namespace to use.
	GroupID int
}

func (o *Options) setDefaults() {
	if o.Eps <= 0 {
		o.Eps = 1
	}
	if o.InitialLen <= 0 {
		o.InitialLen = 8
	}
}

// Result reports the prefix approximation outcome.
type Result struct {
	// Dist[i] is the approximated distinguishing prefix length of ss[i],
	// capped at len(ss[i]). Transmitting Dist[i] characters of ss[i]
	// preserves the global string order (see package comment).
	Dist []int32
	// Iterations is the number of duplicate detection rounds executed.
	Iterations int
	// ResolvedUnique counts strings resolved by a unique fingerprint;
	// ResolvedLength counts strings resolved because ℓ reached their length.
	ResolvedUnique, ResolvedLength int
}

// ApproxDist runs the distributed prefix doubling on the local string set
// ss (one call per PE, collectively). It returns per-string distinguishing
// prefix bounds. Accounting goes to stats.PhaseDupDetect.
func ApproxDist(c *comm.Comm, ss [][]byte, opt Options) Result {
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
	// Every round reuses these: the requests, the TwoLevel recheck list,
	// the per-string verdicts (cleared as the candidates resolve) and the
	// uniqueness rounds' routing buffers.
	allReqs := make([]req, 0, n)
	var recheck []req
	unique := make([]bool, n)
	rs := newRounds(g, n)

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
		allReqs = allReqs[:0]
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
		if opt.TwoLevel {
			rs.uniqueRound(allReqs, roundOpts{short: true, hyper: opt.Hypercube}, unique)
			recheck = recheck[:0]
			for _, r := range allReqs {
				if !unique[r.cand] {
					recheck = append(recheck, r)
				}
			}
			rs.uniqueRound(recheck, roundOpts{golomb: opt.Golomb, hyper: opt.Hypercube}, unique)
		} else {
			rs.uniqueRound(allReqs, roundOpts{golomb: opt.Golomb, hyper: opt.Hypercube}, unique)
		}

		// Resolve candidates: unique fingerprints prove distinguishing
		// prefixes; strings shorter than ℓ resolve with their full length
		// after their terminated blocking round.
		live := candidates[:0]
		for _, ci := range candidates {
			isUnique := unique[ci]
			unique[ci] = false
			switch {
			case len(ss[ci]) < ell:
				res.Dist[ci] = int32(len(ss[ci]))
				res.ResolvedLength++
			case isUnique:
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

// req is one candidate's fingerprint submission.
type req struct {
	cand int32
	fp   uint64
}

// roundOpts select the wire format and routing of one uniqueness round.
type roundOpts struct {
	short  bool // 32-bit fingerprints (first level of TwoLevel)
	golomb bool // Golomb-code the (sorted) fingerprints
	hyper  bool // hypercube-route the all-to-alls (power-of-two p only)
}

// rounds holds the buffers one PE's uniqueness rounds reuse. Each
// ApproxDist call owns its own: the PEs of a machine run concurrently.
type rounds struct {
	g *comm.Group
	p int
	// routed and scratch hold up to n requests each: a round sorts its
	// requests in routed (scratch is the radix sort's scatter buffer),
	// then groups them by destination into scratch.
	routed, scratch []req
	fps             []uint64 // the grouped fingerprints, as encoded
	off             []int    // destination d's group is [off[d], off[d+1])
	bits            []bool   // verdicts on the received fingerprints
}

func newRounds(g *comm.Group, n int) *rounds {
	p := g.N()
	return &rounds{
		g: g, p: p,
		routed: make([]req, n), scratch: make([]req, n),
		fps: make([]uint64, n), off: make([]int, p+1),
	}
}

// uniqueRound routes each request's fingerprint to PE (fp mod p), counts
// global multiplicities there, and sets unique[cand] for every request
// whose fingerprint is globally unique. One collective call per PE.
//
// Every fingerprint message is sorted, in all three formats: Golomb coding
// needs it, and the receiver counts multiplicities by merging the runs.
func (rs *rounds) uniqueRound(reqs []req, ro roundOpts, unique []bool) {
	p := rs.p
	// Short rounds count by the upper 32 bits (well-mixed by the
	// finalizer); routing must use the same value so all copies of a
	// fingerprint meet at the same PE.
	routed := rs.routed[:len(reqs)]
	for i, r := range reqs {
		if ro.short {
			r.fp >>= 32
		}
		routed[i] = r
	}
	radixSort(routed, rs.scratch[:len(reqs)])

	// Group by destination with a stable counting scatter, so every group
	// stays sorted: count into off[d], turn the counts into group ends,
	// and fill each group back to front.
	off := rs.off
	clear(off)
	for _, r := range routed {
		off[r.fp%uint64(p)]++
	}
	for d := 1; d <= p; d++ {
		off[d] += off[d-1]
	}
	grouped := rs.scratch[:len(reqs)]
	for i := len(routed) - 1; i >= 0; i-- {
		d := routed[i].fp % uint64(p)
		off[d]--
		grouped[off[d]] = routed[i]
	}

	fps := rs.fps[:len(reqs)]
	for i, r := range grouped {
		fps[i] = r.fp
	}
	parts := make([][]byte, p)
	for d := range parts {
		run := fps[off[d]:off[d+1]]
		switch {
		case ro.golomb:
			parts[d] = golomb.EncodeSorted(run)
		case ro.short:
			parts[d] = wire.EncodeUint32sFixed(run)
		default:
			parts[d] = wire.EncodeUint64sFixed(run)
		}
	}
	replies := rs.verdicts(rs.exchange(parts, ro), ro)
	verdicts := rs.exchange(replies, ro)

	for d, msg := range verdicts {
		group := grouped[off[d]:off[d+1]]
		bits, err := wire.DecodeBitset(msg)
		if err != nil || len(bits) != len(group) {
			panic("dupdetect: corrupt verdict message")
		}
		for j, r := range group {
			if bits[j] {
				unique[r.cand] = true
			}
		}
	}
}

func (rs *rounds) exchange(parts [][]byte, ro roundOpts) [][]byte {
	if ro.hyper && rs.p&(rs.p-1) == 0 {
		return rs.g.AlltoallvHypercube(parts)
	}
	return rs.g.Alltoallv(parts)
}

var errUnsorted = errors.New("fingerprint run not sorted")

// verdicts decodes the fingerprint runs a round delivered to this PE, one
// per source, and returns one bitset reply per source marking which of
// its fingerprints occur exactly once across all runs.
func (rs *rounds) verdicts(recvd [][]byte, ro roundOpts) [][]byte {
	runs := make([][]uint64, len(recvd))
	total := 0
	for src, msg := range recvd {
		var fps []uint64
		var err error
		switch {
		case ro.golomb:
			fps, err = golomb.DecodeSorted(msg)
		case ro.short:
			fps, err = wire.DecodeUint32sFixed(msg)
		default:
			fps, err = wire.DecodeUint64sFixed(msg)
		}
		// The multiplicity merge relies on sorted runs; a Golomb run can
		// only go out of order by a wrapping gap.
		if err == nil && !slices.IsSorted(fps) {
			err = errUnsorted
		}
		if err != nil {
			panic("dupdetect: corrupt fingerprint message: " + err.Error())
		}
		runs[src] = fps
		total += len(fps)
	}

	if cap(rs.bits) < total {
		rs.bits = make([]bool, total)
	}
	bits := rs.bits[:total]
	clear(bits)
	markUnique(runs, bits)

	replies := make([][]byte, len(runs))
	at := 0
	for src, run := range runs {
		replies[src] = wire.EncodeBitset(bits[at : at+len(run)])
		at += len(run)
	}
	return replies
}

// markUnique sets bits[i] for every value that occurs exactly once in all
// runs together, i indexing the runs' concatenation. Every run must be
// sorted. A merge over a binary min-heap of the run heads finds each
// value's multiplicity in O(n log p) for n values in p runs.
func markUnique(runs [][]uint64, bits []bool) {
	start := make([]int, len(runs)) // offset of each run in bits
	pos := make([]int, len(runs))   // each run's merge cursor
	h := make(runHeap, 0, len(runs))
	at := 0
	for i, run := range runs {
		start[i] = at
		at += len(run)
		if len(run) > 0 {
			h = append(h, runHead{fp: run[0], run: i})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	for len(h) > 0 {
		fp := h[0].fp
		count, last := 0, 0
		for len(h) > 0 && h[0].fp == fp {
			i := h[0].run
			run, j := runs[i], pos[i]
			last = start[i] + j
			for j < len(run) && run[j] == fp {
				j++
				count++
			}
			pos[i] = j
			if j < len(run) {
				h[0].fp = run[j]
			} else {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
			h.down(0)
		}
		if count == 1 {
			bits[last] = true
		}
	}
}

// runHead is a run's next unmerged value.
type runHead struct {
	fp  uint64
	run int
}

// runHeap is a binary min-heap of run heads ordered by value.
type runHeap []runHead

// down restores the heap order below i after h[i] grew.
func (h runHeap) down(i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(h) && h[l].fp < h[least].fp {
			least = l
		}
		if r := 2*i + 2; r < len(h) && h[r].fp < h[least].fp {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// radixSort sorts a by fingerprint with an LSD radix sort over the
// fingerprint's bytes, using tmp (as long as a) as the scatter buffer.
// A byte position on which all keys agree is skipped, so 32-bit keys cost
// four passes.
func radixSort(a, tmp []req) {
	if len(a) < 2 {
		return
	}
	var counts [8][256]int
	for _, r := range a {
		for b := range counts {
			counts[b][byte(r.fp>>(8*b))]++
		}
	}
	src, dst := a, tmp
	for b := range counts {
		c := &counts[b]
		shift := 8 * b
		if c[byte(a[0].fp>>shift)] == len(a) {
			continue
		}
		sum := 0
		for d, k := range c {
			c[d] = sum
			sum += k
		}
		for _, r := range src {
			d := byte(r.fp >> shift)
			dst[c[d]] = r
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

func allRanks(p int) []int {
	r := make([]int, p)
	for i := range r {
		r[i] = i
	}
	return r
}
