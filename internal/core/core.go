// Package core implements the paper's distributed string sorting
// algorithms on the comm substrate:
//
//   - HQuick (Section IV): hypercube quicksort adapted to strings — the
//     atomic baseline and the distributed sample sorter of MS and PDMS;
//   - MergeSort (Section V): distributed string merge sort, in the
//     MS-simple configuration (no LCP optimizations) and the MS
//     configuration (LCP compression + LCP-aware multiway merging);
//   - PDMS (Section VI): distributed prefix-doubling string merge sort,
//     which approximates distinguishing prefix lengths with distributed
//     duplicate detection and transmits only those prefixes;
//   - FKMerge (Section II-C): the Fischer-Kurpicz distributed mergesort
//     baseline with centralized deterministic sample sorting and a plain
//     loser tree.
//
// All algorithms are SPMD: every PE calls the function collectively with
// its local string array and receives its fragment of the globally sorted
// output (PE i's strings ≤ PE i+1's strings, each fragment locally sorted).
// Input slices are not modified; the spine is copied internally.
//
// Every in-RAM run has one Step-3→Step-4 seam, split-phase by default:
// all outgoing buckets are posted as their encoders finish, each incoming
// run is decoded whole the moment it lands, and Step 4 merges the decoded
// runs (exchangeEncoded, then the partitioned merge). The exchange thus
// overlaps the decode work instead of ending at a global barrier. The
// deterministic statistics are unaffected — received bytes are billed to
// the phase the exchange was posted in — and the bulk-synchronous seam
// remains selectable through Seam.BlockingExchange as the differential
// reference. The bounded-memory pipeline (Seam.Spill, outofcore.go) is
// the one other seam: a chunked exchange feeding spillable run readers
// that a sink-mode loser tree drains into a sorted-run file.
package core

import (
	"dss/internal/comm"
	"dss/internal/merge"
	"dss/internal/spill"
	"dss/internal/stats"
	"dss/internal/trace"
)

// Seam selects how the merge-family sorters (MergeSort, PDMS, FKMerge)
// move their Step-3 buckets into the Step-4 merge. It is embedded in
// their option structs; the zero value is the default in-RAM split-phase
// seam with the default parallel-merge gate.
type Seam struct {
	// BlockingExchange selects the bulk-synchronous Step-3 seam
	// (Alltoallv, then decode) instead of the default split-phase one that
	// decodes each run on arrival. Deterministic statistics are identical
	// either way; blocking mode exists for differential testing.
	BlockingExchange bool
	// StreamChunk bounds the budget pipeline's chunked-exchange frame
	// payload in bytes (0 = the comm default; ignored without Spill).
	// Small values force many frames; tests use them to exercise
	// resume-mid-frame paths.
	StreamChunk int
	// ParMergeMin gates the partitioned parallel Step-4 merge by received
	// strings: 0 = merge.DefaultParMin, negative = always sequential.
	// Output and deterministic stats are pool-width-independent either way.
	ParMergeMin int
	// Spill, if non-nil, runs the bounded-memory out-of-core pipeline:
	// Step 3 ships through the chunked exchange, incoming runs spill to
	// page files once the pool's budget is exceeded, and the Step-4 sink
	// merge drains into Out (required non-nil with Spill) instead of an
	// output arena. The deterministic statistics are untouched — they are
	// seam-invariant and the spill decision only moves measured gauges —
	// and the result holds Drained instead of Strings. PDMS writes each
	// prefix's origin into the run file's satellite column; budget-mode
	// callers resolve full strings by origin instead of Reconstruct.
	Spill *spill.Pool
	// Out receives the merged run in budget mode (nil otherwise).
	Out *spill.RunWriter
}

// Origin identifies where an output string came from: the PE it was
// submitted on and its index in that PE's input array. PDMS reports origins
// so that applications (and the verifier) can fetch the full string behind
// a transmitted prefix.
type Origin struct {
	PE    int32
	Index int32
}

// Result is one PE's fragment of the sorted output.
type Result struct {
	// Strings is the locally sorted fragment; globally, fragments are
	// ordered by PE rank. For PDMS these are distinguishing prefixes, not
	// full strings (see PrefixOnly).
	Strings [][]byte
	// LCPs is the LCP array of Strings (LCPs[0] = 0). It is nil for
	// algorithms that do not produce LCP output (MS-simple, FKMerge).
	LCPs []int32
	// Origins, if non-nil, gives the provenance of each output string
	// (PDMS always fills it).
	Origins []Origin
	// PrefixOnly marks PDMS results: Strings hold only the approximated
	// distinguishing prefixes. The permutation they define is the correct
	// sorted order of the underlying full strings; use Reconstruct to
	// materialize them.
	PrefixOnly bool
	// Drained counts the items streamed to the budget pipeline's run
	// writer. Budget-mode results hold no Strings — the sorted fragment
	// lives in the caller's sorted-run file.
	Drained int64
}

// originSat packs an Origin into a merge satellite word.
func originSat(pe, idx int) uint64 {
	return uint64(uint32(pe))<<32 | uint64(uint32(idx))
}

func satOrigin(u uint64) Origin {
	return Origin{PE: int32(u >> 32), Index: int32(uint32(u))}
}

func allRanks(p int) []int {
	r := make([]int, p)
	for i := range r {
		r[i] = i
	}
	return r
}

// cloneSpine copies the slice headers (not the character data) so the
// caller's array survives in-place sorting.
func cloneSpine(ss [][]byte) [][]byte {
	out := make([][]byte, len(ss))
	copy(out, ss)
	return out
}

// partOffsets prefix-sums per-destination encoded sizes into arena
// offsets: bucket dst occupies [offs[dst], offs[dst+1]).
func partOffsets(sizes []int) []int {
	offs := make([]int, len(sizes)+1)
	for i, s := range sizes {
		offs[i+1] = offs[i] + s
	}
	return offs
}

// encodeParts runs the Step-3 bucket encoders on the PE's work pool: each
// enc(dst, buf) receives a zero-length slice whose capacity is exactly
// sizes[dst] — a disjoint region of ONE pre-sized arena — appends its
// bucket's encoding, and returns the filled slice. The regions are
// disjoint by construction, so the p encoders run concurrently without
// synchronization, and the encoded bytes are identical at every pool
// width (each encoder is a pure function of its bucket). Worker busy time
// is credited to the current phase's CPU channel. Used directly by the
// budget pipeline, which hands the parts to the chunked exchange.
func encodeParts(c *comm.Comm, sizes []int, enc func(dst int, buf []byte) []byte) [][]byte {
	offs := partOffsets(sizes)
	arena := make([]byte, offs[len(sizes)])
	parts := make([][]byte, len(sizes))
	busy := c.ForEachSpan("encode", len(sizes), func(dst int) {
		lo, hi := offs[dst], offs[dst+1]
		buf := enc(dst, arena[lo:lo:hi])
		if len(buf) != hi-lo {
			panic("core: bucket encoder size mismatch")
		}
		parts[dst] = buf
	})
	c.AddCPU(busy)
	return parts
}

// exchangeEncoded executes the Step-3 all-to-all seam shared by all four
// algorithms, with both sides of the exchange spread over the PE's work
// pool: the p bucket encoders run concurrently into disjoint regions of
// one exactly pre-sized arena (sizes[dst] bytes each), and every received
// part is handed to decode exactly once — concurrently too — with its
// buffer released afterwards (all decoders copy their results out). The
// accounting phase is left at next.
//
// Split-phase mode (blocking=false, the default): the exchange is posted
// STAGED — each bucket is posted the moment its encoder task finishes,
// signaled through a completion channel so the send and its accounting
// stay on the PE goroutine — and each incoming run is dispatched to a
// decode task as soon as its frames land, in ARRIVAL order. Stragglers'
// communication thus hides under both the faster buckets' sends and the
// decode work. Received bytes stay billed to the posting phase and the
// encoded bytes are schedule-independent, so model time and bytes/string
// are bit-identical to the sequential blocking seam; only wall-clock
// improves, measured as stats.PE.Overlap and the CPU channel.
//
// Blocking mode reproduces the bulk-synchronous seam: encode all (in
// parallel), one Alltoallv, decode all (in parallel), then the phase
// switch.
func exchangeEncoded(c *comm.Comm, g *comm.Group, sizes []int,
	enc func(dst int, buf []byte) []byte, blocking bool, next stats.Phase,
	decode func(src int, msg []byte)) {
	pool := c.Pool()
	if blocking {
		parts := encodeParts(c, sizes, enc)
		recvd := g.Alltoallv(parts)
		dgrp := pool.Group()
		for src, msg := range recvd {
			dgrp.Go(func() {
				decode(src, msg)
				c.Release(msg)
			})
		}
		c.AddCPU(dgrp.Wait())
		c.SetPhase(next)
		return
	}
	// Staged posting: the Pending is created first (it captures the
	// accounting phase and the overlap clock), encoder tasks signal their
	// bucket index on completion, and the PE goroutine posts each part as
	// the signal arrives — at width 1 the tasks run inline, the channel
	// fills in destination order, and the seam is exactly sequential.
	offs := partOffsets(sizes)
	arena := make([]byte, offs[len(sizes)])
	parts := make([][]byte, len(sizes))
	pd := g.IAlltoallvStaged()
	egrp := pool.Group()
	done := make(chan int, len(sizes))
	for dst := 0; dst < len(sizes); dst++ {
		dst := dst
		egrp.Go(func() {
			// Signal via defer so a panicking encoder still unblocks the
			// posting loop below; the panic itself re-raises at egrp.Wait.
			defer func() { done <- dst }()
			lo, hi := offs[dst], offs[dst+1]
			buf := enc(dst, arena[lo:lo:hi])
			if len(buf) != hi-lo {
				panic("core: bucket encoder size mismatch")
			}
			parts[dst] = buf
		})
	}
	for range sizes {
		dst := <-done
		pd.Post(dst, parts[dst])
	}
	c.AddCPU(egrp.Wait())
	c.SetPhase(next)
	dgrp := pool.Group()
	for {
		src, msg, ok := pd.PollAny()
		if !ok {
			break
		}
		dgrp.Go(func() {
			decode(src, msg)
			c.Release(msg)
		})
	}
	c.AddCPU(dgrp.Wait())
}

// mergeHooks builds the merge layer's trace hooks from the PE's recorder:
// worker spans labeled "merge" plus one "merge-seam" instant per
// partition boundary (Arg = output index, Arg2 = partition). Zero hooks —
// costing nothing — when tracing is off.
func mergeHooks(c *comm.Comm) merge.Hooks {
	tr := c.Trace()
	if tr == nil {
		return merge.Hooks{}
	}
	return merge.Hooks{
		Obs: c.WorkerObserver("merge"),
		OnPartition: func(bounds []int) {
			for j := 1; j < len(bounds); j++ {
				tr.Instant(trace.TrackControl, "merge-seam", int64(bounds[j]), int64(j-1))
			}
		},
	}
}
