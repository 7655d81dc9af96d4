// The bounded-memory Step-3→Step-4 seam: buckets ship as a chunked
// exchange (comm.IAlltoallvChunked) feeding incremental run readers
// (wire.RunReader), every arriving fragment may be diverted to a per-run
// page file when the decoded arenas exceed the spill pool's budget, the
// sink-mode loser tree pulls windows of decoded strings off the readers
// and drains straight into a sorted-run writer instead of an output arena,
// and each run's consumed arena prefix is recycled as the merge passes it.
// Feeding order equals arrival order whether bytes take the resident or the
// spilled route, so the decoded runs — and with them the merged output and
// every deterministic statistic — are byte-identical to the in-RAM seam. Only
// where bytes wait (RAM vs page file) and where the output lands (arena vs
// run file) differ, and those differences live on the measured channels:
// SpillBytesWritten/Read, PeakLiveBytes and the write-behind CPU share.
package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"dss/internal/comm"
	"dss/internal/merge"
	"dss/internal/spill"
	"dss/internal/stats"
	"dss/internal/trace"
	"dss/internal/wire"
)

// spillStream couples a chunked exchange in flight with one budgeted run
// per source. It is confined to the PE goroutine, like the Comm; only
// the page writes run concurrently (spill.File's write-behind chain).
type spillStream struct {
	c        *comm.Comm
	pd       *comm.ChunkPending
	pool     *spill.Pool
	runs     []*spillRun
	spillAll bool // every run goes to its page file from the first chunk
	chunk    int  // exchange frame payload bound: the routing granularity
}

// spillRun is one incoming run's state: resident (file == nil, fragments
// feed the reader directly) or spilled (every further fragment appends to
// the page file and is paged back in sequentially ahead of the merge
// cursor). A run switches to spilled at most once — reverting would
// reorder its bytes — so the file, once created, receives every later
// fragment even if the pool drops back under budget.
type spillRun struct {
	r        *wire.RunReader
	file     *spill.File
	fed      int64 // page-file bytes fed back to the reader so far
	metered  int64 // reader arena bytes currently reserved in the pool
	arrived  bool  // last exchange fragment received
	finished bool  // reader.Finish called
}

// spillRuns posts the outgoing buckets as chunked transfers (billed
// bucket for bucket like the in-RAM exchange) and returns the budgeted
// pull views, decoding resident runs with format. spillAll sends every
// run to its page file from the first chunk, for layouts no run reader can
// emit from before the bucket is complete (PDMS's trailing origin
// section): feeding those on arrival would grow the resident arenas to
// the full received volume. Blocking mode drains every fragment before
// the phase switch, spilling past-budget bytes as it goes: the
// bulk-synchronous out-of-core reference.
func spillRuns(c *comm.Comm, g *comm.Group, parts [][]byte, seam Seam, format wire.RunFormat, spillAll bool) *spillStream {
	chunk := seam.StreamChunk
	if chunk <= 0 {
		chunk = comm.DefaultStreamChunk
	}
	st := &spillStream{c: c, pool: seam.Spill, runs: make([]*spillRun, len(parts)), spillAll: spillAll, chunk: chunk}
	for i := range st.runs {
		st.runs[i] = &spillRun{r: wire.NewRunReader(format)}
	}
	st.pd = g.IAlltoallvChunked(parts, chunk)
	if seam.BlockingExchange {
		st.pd.NoOverlapCredit()
		for st.drainOne() {
		}
	}
	c.SetPhase(stats.PhaseMerge)
	return st
}

// drainOne receives the next fragment of the exchange and routes it, a
// chunk at a time: to its run's reader while the pool has budget, to the
// run's page file once it does not. The PE's own bucket arrives as one
// fragment; cutting it into exchange-sized chunks gives it the same
// per-chunk budget decision as a remote bucket, so the resident arenas
// overshoot the budget by a chunk, never by a whole bucket. The spill
// decision is a pure scheduling choice — it can differ run to run and
// transport to transport — and therefore only ever moves measured
// gauges, never a deterministic counter.
func (st *spillStream) drainOne() bool {
	idx, chunk, frame, last, ok := st.pd.RecvChunk()
	if !ok {
		return false
	}
	run := st.runs[idx]
	for len(chunk) > 0 {
		n := min(len(chunk), st.chunk)
		st.route(run, idx, chunk[:n])
		chunk = chunk[n:]
	}
	st.c.Release(frame)
	if last {
		run.arrived = true
		if run.file == nil {
			run.finished = true
			run.r.Finish()
		}
	}
	return true
}

// route appends one chunk of run idx to its reader or its page file.
func (st *spillStream) route(run *spillRun, idx int, chunk []byte) {
	if run.file == nil && (st.spillAll || st.pool.Over()) {
		f, err := st.pool.CreateFile(fmt.Sprintf("run%d", idx))
		if err != nil {
			panic("core: spill: " + err.Error())
		}
		run.file = f
	}
	if run.file != nil {
		run.file.Append(chunk)
	} else {
		run.r.Feed(chunk)
		st.meter(run)
	}
}

// meter reserves the run reader's arena growth against the budget.
func (st *spillStream) meter(run *spillRun) {
	if a := int64(run.r.ArenaBytes()); a > run.metered {
		st.pool.Reserve(a - run.metered)
		run.metered = a
	}
}

// recycle returns the run's consumed arena to the budget. Only legal in
// sink mode: every emitted string has been copied out by the run writer
// before its source advanced, so no live pointer reaches the freed block.
// (The reader's LCP rematerialization still pins one stale block via its
// prev buffer — part of the documented fixed overhead.)
func (st *spillStream) recycle(run *spillRun) {
	if freed := int64(run.r.Recycle()); freed > 0 {
		st.pool.Release(freed)
		run.metered -= freed
	}
}

// feedMore makes progress for a stalled reader: recycle what the merge
// has consumed, page spilled bytes back in, finish the reader when every
// byte has been fed, or drain the next exchange fragment (which may
// belong to any run).
func (st *spillStream) feedMore(run *spillRun) {
	st.recycle(run)
	if run.file != nil && run.fed < run.file.Size() {
		b, err := run.file.ReadSpan(run.fed, st.pool.PageSize())
		if err != nil {
			panic("core: spill: " + err.Error())
		}
		run.fed += int64(len(b))
		run.r.Feed(b)
		st.meter(run)
		return
	}
	if run.arrived || !st.drainOne() {
		// Every byte of the run has been fed (resident runs finished at
		// arrival) or the exchange is unexpectedly dry: finish so the
		// reader reports completion — or truncation — on the next pull.
		if !run.finished {
			run.finished = true
			run.r.Finish()
		}
	}
}

// sources returns the budgeted pull views of all runs, in group rank
// order.
func (st *spillStream) sources() []merge.Source {
	out := make([]merge.Source, len(st.runs))
	for i, run := range st.runs {
		out[i] = &spillSource{st: st, run: run}
	}
	return out
}

// finish completes the write-behind chains, bills their busy time to the
// measured CPU channel, releases the metered arenas and closes the page
// descriptors (the pool's Close unlinks the files themselves). Called
// after the sink merge has drained every source.
func (st *spillStream) finish() {
	var busy int64
	for _, run := range st.runs {
		if run.file != nil {
			b, err := run.file.Finish()
			busy += b
			if err != nil {
				panic("core: spill write: " + err.Error())
			}
			run.file.Close()
		}
		st.recycle(run)
		if run.metered > 0 {
			st.pool.Release(run.metered)
			run.metered = 0
		}
	}
	st.c.AddCPU(busy)
}

// spillSource adapts one budgeted run to merge.Source. A window is only
// valid until the next one is pulled — the arena behind consumed strings
// is recycled — which is exactly the guarantee the sink-mode merge needs
// and no more.
type spillSource struct {
	st  *spillStream
	run *spillRun
}

// Next returns the strings the run's reader has decoded and not yet handed
// out, paging and draining until there is at least one; an empty window
// reports the run exhausted.
func (s *spillSource) Next() merge.Sequence {
	for {
		strs, lcps, err := s.run.r.Window()
		switch {
		case err != nil:
			panic("core: corrupt spilled run: " + err.Error())
		case len(strs) > 0:
			return merge.Sequence{Strings: strs, LCPs: lcps}
		case s.run.r.Done():
			return merge.Sequence{}
		default:
			s.st.feedMore(s.run)
		}
	}
}

// markMergeStart returns the merge's first-output hook: it stamps the PE's
// merge-start milestone, which the overlap reporting compares against the
// exchange-done stamp to show merging began while frames were in flight.
func markMergeStart(c *comm.Comm) func() {
	return func() {
		c.StatsPE().MergeStartNS = time.Now().UnixNano()
		c.Trace().Instant(trace.TrackControl, "merge-start", 0, 0)
	}
}

// sinkMerge drains the budgeted sources through the sequential sink-mode
// loser tree into the run writer. The item sequence and the returned work
// are bit-identical to the in-RAM merges — merge.MergeStreamSink runs
// their loser tree — only where the output lands differs.
func sinkMerge(c *comm.Comm, st *spillStream, lcp, sats bool, out *spill.RunWriter) (n, work int64) {
	n, work, err := merge.MergeStreamSink(st.sources(), merge.StreamOptions{
		LCP: lcp, Sats: sats, OnFirstOutput: markMergeStart(c),
	}, out.Add)
	st.finish()
	if err != nil {
		panic("core: run writer: " + err.Error())
	}
	return n, work
}

// compositeSource is the budgeted pull view of one PDMS bucket (a
// length-prefixed RunStringsLCP prefix blob followed by a length-prefixed
// origin section: count, then one varint origin per prefix). The whole
// bucket lives in the run's page file (spillStream.spillAll); two
// cursors page it back in independently — a RunStringsLCP reader over the
// prefix-blob section and a varint scanner over the trailing origin
// section — so the resident footprint is a page or two per run even
// though no (prefix, origin) pair exists before the bucket's last byte.
type compositeSource struct {
	st  *spillStream
	run *spillRun

	sr    *wire.RunReader // RunStringsLCP view of the blob section
	srMet int64           // sr arena bytes reserved in the pool
	fed   int64           // next blob byte (absolute file offset) to feed sr
	end   int64           // absolute end of the blob section
	hdr   bool            // blob-length header parsed

	obuf []byte // buffered origin-section bytes
	oMet int64  // obuf bytes reserved in the pool
	opos int    // consumed prefix of obuf
	oabs int64  // next origin byte (absolute file offset) to page in
	ohdr int    // 0 = before oSize varint, 1 = before count, 2 = origins

	win merge.Sequence // the window being built; Sats is reused
	eof bool
}

// Next returns the prefixes the bucket's reader has decoded and not yet
// handed out, each with its origin, draining the exchange and paging the
// bucket until there is at least one; an empty window reports exhaustion.
func (s *compositeSource) Next() merge.Sequence {
	s.win.Strings = nil
	for len(s.win.Strings) == 0 {
		if s.eof {
			return merge.Sequence{}
		}
		s.pull()
	}
	return s.win
}

// pull makes one step of progress: complete the bucket, parse the header,
// decode the next window of prefixes or page in more of a section.
func (s *compositeSource) pull() {
	run := s.run
	for !run.arrived {
		if !s.st.drainOne() {
			// RecvChunk reports completion only when every transfer is done,
			// so a dry exchange with an incomplete run cannot happen.
			panic("core: spill: exchange ended before a composite run arrived")
		}
	}
	if run.file == nil {
		// No bytes ever arrived for this run; a PDMS bucket is never empty
		// on the wire, so nothing can be decoded from it.
		s.eof = true
		return
	}
	if !s.hdr {
		b, err := run.file.ReadSpan(0, 16)
		if err != nil {
			panic("core: spill: " + err.Error())
		}
		v, n := binary.Uvarint(b)
		if n <= 0 || v > uint64(maxSpillSection) {
			panic("core: corrupt spilled run: bad composite header")
		}
		s.fed = int64(n)
		s.end = int64(n) + int64(v)
		s.oabs = s.end
		s.hdr = true
	}
	strs, lcps, err := s.sr.Window()
	switch {
	case err != nil:
		panic("core: corrupt spilled run: " + err.Error())
	case len(strs) > 0:
		s.win.Sats = s.win.Sats[:0]
		for range strs {
			s.win.Sats = append(s.win.Sats, s.nextOrigin())
		}
		s.win.Strings, s.win.LCPs = strs, lcps
	case s.sr.Done():
		s.eof = true
	default:
		s.feedBlob()
	}
}

// feedBlob recycles the consumed prefix arena and pages the next span of
// the blob section into the string reader.
func (s *compositeSource) feedBlob() {
	if freed := int64(s.sr.Recycle()); freed > 0 {
		s.st.pool.Release(freed)
		s.srMet -= freed
	}
	if s.fed >= s.end {
		s.sr.Finish() // surfaces truncation through the next Next
		return
	}
	max := s.st.pool.PageSize()
	if rem := s.end - s.fed; int64(max) > rem {
		max = int(rem)
	}
	b, err := s.run.file.ReadSpan(s.fed, max)
	if err != nil {
		panic("core: spill: " + err.Error())
	}
	if len(b) == 0 {
		panic("core: corrupt spilled run: composite blob truncated")
	}
	s.fed += int64(len(b))
	s.sr.Feed(b)
	if a := int64(s.sr.ArenaBytes()); a > s.srMet {
		s.st.pool.Reserve(a - s.srMet)
		s.srMet = a
	}
}

// nextOrigin returns the next origin varint of the trailing section,
// paging more of the file in as needed.
func (s *compositeSource) nextOrigin() uint64 {
	for {
		if v, n := binary.Uvarint(s.obuf[s.opos:]); n > 0 {
			s.opos += n
			switch s.ohdr {
			case 0:
				s.ohdr = 1 // section length; the count below bounds the scan
			case 1:
				s.ohdr = 2 // origin count; a mismatch with the string count
				// surfaces as a truncation panic when the origins run out
			default:
				return v
			}
			continue
		} else if n < 0 {
			panic("core: corrupt spilled run: bad origin varint")
		}
		s.pageOrigins()
	}
}

// pageOrigins compacts the consumed origin bytes and pages in the next
// span of the origin section.
func (s *compositeSource) pageOrigins() {
	if s.opos > 0 {
		s.obuf = append(s.obuf[:0], s.obuf[s.opos:]...)
		s.opos = 0
		s.meterO()
	}
	b, err := s.run.file.ReadSpan(s.oabs, s.st.pool.PageSize())
	if err != nil {
		panic("core: spill: " + err.Error())
	}
	if len(b) == 0 {
		panic("core: corrupt spilled run: composite origins truncated")
	}
	s.oabs += int64(len(b))
	s.obuf = append(s.obuf, b...)
	s.meterO()
}

// meterO reconciles the origin buffer's pool reservation with its size.
func (s *compositeSource) meterO() {
	if d := int64(len(s.obuf)) - s.oMet; d > 0 {
		s.st.pool.Reserve(d)
		s.oMet += d
	} else if d < 0 {
		s.st.pool.Release(-d)
		s.oMet += d
	}
}

// release returns the source's metered bytes to the budget.
func (s *compositeSource) release() {
	s.st.pool.Release(s.srMet + s.oMet)
	s.srMet, s.oMet = 0, 0
	s.obuf = nil
}

// maxSpillSection bounds a declared blob length; it mirrors the
// transports' frame limit, so a longer one cannot belong to a real bucket.
const maxSpillSection = 1<<31 - 1

// sinkMergeComposite drains budgeted PDMS buckets through the
// sink-mode loser tree into the run writer, pairing each prefix with its
// origin from the bucket's trailing section. Item sequence and work are
// bit-identical to the in-RAM PDMS merges.
func sinkMergeComposite(c *comm.Comm, st *spillStream, out *spill.RunWriter) (n, work int64) {
	srcs := make([]merge.Source, len(st.runs))
	comps := make([]*compositeSource, len(st.runs))
	for i, run := range st.runs {
		cs := &compositeSource{st: st, run: run, sr: wire.NewRunReader(wire.RunStringsLCP)}
		comps[i] = cs
		srcs[i] = cs
	}
	n, work, err := merge.MergeStreamSink(srcs, merge.StreamOptions{
		LCP: true, Sats: true, OnFirstOutput: markMergeStart(c),
	}, out.Add)
	for _, cs := range comps {
		cs.release()
	}
	st.finish()
	if err != nil {
		panic("core: run writer: " + err.Error())
	}
	return n, work
}

// drainSorted streams an already materialized sorted fragment into the
// budget pipeline's run writer — the hQuick path and the p == 1 fast
// paths, which have no Step-4 merge to sink.
func drainSorted(out *spill.RunWriter, ss [][]byte, lcps []int32, sats []uint64) int64 {
	for i, s := range ss {
		var lcp int32
		if lcps != nil && i > 0 {
			lcp = lcps[i]
		}
		var sat uint64
		if sats != nil {
			sat = sats[i]
		}
		if err := out.Add(s, lcp, sat); err != nil {
			panic("core: run writer: " + err.Error())
		}
	}
	return int64(len(ss))
}
