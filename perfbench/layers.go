package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"dss/internal/comm"
	"dss/internal/dupdetect"
	"dss/internal/fingerprint"
	"dss/internal/golomb"
	"dss/internal/merge"
	"dss/internal/par"
	"dss/internal/partition"
	"dss/internal/spill"
	"dss/internal/strsort"
	"dss/internal/transport"
	"dss/internal/transport/codec"
	"dss/internal/transport/local"
	"dss/internal/transport/tcp"
	"dss/internal/wire"
	"dss/stringsort"
)

// span is one call into a layer, timed by the benchmark around the call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count"` // work units the call covers (strings, bytes, values)
}

// spanLog keeps the run's spans in memory; they are written out when the
// run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: time.Since(l.t0).Nanoseconds()})
	return len(l.spans)
}

func (l *spanLog) end(id int, count int64) time.Duration {
	sp := &l.spans[id-1]
	sp.End, sp.Count = time.Since(l.t0).Nanoseconds(), count
	return time.Duration(sp.End - sp.Start)
}

func (l *spanLog) write(path string) error {
	b, err := json.Marshal(map[string]any{"spans": l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Replay repetitions per layer: at least minReps, then more while the
// layer's share of the window lasts.
const (
	minReps    = 3
	maxReps    = 30
	frameBytes = 8 << 10 // the streaming seam's default frame payload
	traceCap   = 1 << 18 // per-PE trace ring of the traced sorts

	tracedSorts = 3
)

// layers is the traced run: a few timed sorts for the program's own
// per-layer counters, three sorts with the program's trace export on for the
// phase breakdown, then timed calls into every layer on data derived from
// the same input.
func layers(w workload, seed int64, scale float64, window time.Duration, workDir string) (*report, error) {
	log := &spanLog{t0: time.Now()}
	in := newInstance(w, seed, scale)
	s := &sorter{in: in, cfg: sortConfig(w, seed, workDir)}
	s.run() // warm-up

	id := log.begin("stringsort.Sort timed", 0)
	smps, _ := s.loop(window/4, 5)
	log.end(id, int64(len(smps)))
	sortS := median(field(smps, func(x sample) float64 { return x.wall }))

	// The traced sorts: the program's Perfetto export, read back for the
	// per-PE phase spans. Each phase and the traced wall time are medians.
	tcfg := s.cfg
	tcfg.Trace = filepath.Join(workDir, fmt.Sprintf("trace-%s-%d.json", w.name, seed))
	tcfg.TraceCapacity = traceCap
	var tracedWalls []float64
	phaseRuns := map[string][]float64{}
	for i := 0; i < tracedSorts; i++ {
		id = log.begin("stringsort.Sort traced", 0)
		res, wall, err := timedSort(in, tcfg)
		log.end(id, 1)
		s.sorts++
		if err == nil {
			err = in.check(res)
		}
		var phases map[string]float64
		if err == nil {
			phases, err = phaseBreakdown(tcfg.Trace)
		}
		os.Remove(tcfg.Trace)
		if err != nil {
			s.errors = append(s.errors, "traced sort: "+err.Error())
			continue
		}
		tracedWalls = append(tracedWalls, wall.Seconds())
		for _, ph := range phaseNames {
			phaseRuns[ph] = append(phaseRuns[ph], phases[ph])
		}
	}

	rep := newReport(w, seed, s)
	m := rep.Metrics
	med := func(f func(stringsort.Stats) float64) float64 {
		return median(field(smps, func(x sample) float64 { return f(x.st) }))
	}
	m.set("core.work_per_str", med(func(st stringsort.Stats) float64 { return float64(st.Work) / float64(in.n) }), "count")
	m.set("core.imbalance", med(func(st stringsort.Stats) float64 { return st.Imbalance }), "ratio")
	m.set("comm.messages", med(func(st stringsort.Stats) float64 { return float64(st.Messages) }), "count")
	m.set("comm.overlap_ms", med(func(st stringsort.Stats) float64 { return st.MaxOverlapMS }), "ms")
	m.set("merge.wall_ms", med(func(st stringsort.Stats) float64 { return st.MergeWallMS }), "ms")
	m.set("merge.cpu_ms", med(func(st stringsort.Stats) float64 { return st.MergeCPUMS }), "ms")
	m.set("merge.lead_ms", med(func(st stringsort.Stats) float64 { return st.MergeLeadMS }), "ms")
	m.set("spill.written_mb", med(func(st stringsort.Stats) float64 { return float64(st.SpillBytesWritten) / 1e6 }), "MB")
	m.set("spill.read_mb", med(func(st stringsort.Stats) float64 { return float64(st.SpillBytesRead) / 1e6 }), "MB")
	m.set("peak_mem_mb", med(func(st stringsort.Stats) float64 { return float64(st.PeakMemBytes) / 1e6 }), "MB")
	overBudget := 0.0
	if b := s.cfg.MemBudget; b > 0 {
		overBudget = med(func(st stringsort.Stats) float64 { return float64(st.PeakMemBytes) / float64(b) })
	}
	m.set("spill.peak_over_budget", overBudget, "ratio")
	for _, ph := range phaseNames {
		m.set("phase."+ph+"_ms", median(phaseRuns[ph]), "ms")
	}
	m.set("trace.overhead_pct", (median(tracedWalls)-sortS)/sortS*100, "%")
	rep.Extra["samples"] = len(smps)
	rep.Extra["deterministic_stable"] = stable(smps, in.n)

	rp := newReplay(in, w, seed, workDir, log)
	rp.slot = window * 6 / 10 / time.Duration(len(rp.layers()))
	if err := rp.run(m); err != nil {
		rep.Errors = append(rep.Errors, "replay: "+err.Error())
	}
	rep.Extra["replay_reps"] = rp.reps
	spanPath := filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.json", w.name, seed))
	if err := log.write(spanPath); err != nil {
		return nil, err
	}
	rep.Extra["spans_file"] = spanPath
	return rep, nil
}

// replay times each layer's public functions on the Step-1 runs, Step-2
// splitters and Step-3 buckets a sort of the instance would produce.
type replay struct {
	in      *instance
	p       int
	seed    int64
	dir     string
	log     *spanLog
	parent  int // the replay's root span
	slot    time.Duration
	reps    map[string]int
	width   int
	runs    [][][]byte         // per PE: sorted input
	buckets [][]merge.Sequence // [src][dst] Step-3 bucket, LCPs[0] = 0
	enc     [][][]byte         // [src][dst] LCP-compressed wire encoding
	encN    int64              // total encoded bytes
	merged  []merge.Sequence   // per dst: the merged fragment
	splits  [][]byte
	hashes  []uint64 // sorted 64-bit fingerprints of every input string
}

func newReplay(in *instance, w workload, seed int64, dir string, log *spanLog) *replay {
	p := w.p
	r := &replay{in: in, p: p, seed: seed, dir: dir, log: log, reps: map[string]int{},
		width: runtime.GOMAXPROCS(0)}
	r.runs = make([][][]byte, p)
	lcps := make([][]int32, p)
	for pe := 0; pe < p; pe++ {
		r.runs[pe] = append([][]byte(nil), in.inputs[pe]...)
		lcps[pe], _ = strsort.SortLCP(r.runs[pe], nil)
	}
	// Exact quantile splitters of the global order: the buckets a perfect
	// Step 2 would cut.
	for i := 1; i < p; i++ {
		r.splits = append(r.splits, in.ref[i*in.n/p-1])
	}
	r.buckets = make([][]merge.Sequence, p)
	r.enc = make([][][]byte, p)
	for src := 0; src < p; src++ {
		off := partition.Buckets(r.runs[src], r.splits)
		r.buckets[src] = make([]merge.Sequence, p)
		r.enc[src] = make([][]byte, p)
		for dst := 0; dst < p; dst++ {
			lo, hi := off[dst], off[dst+1]
			l := append([]int32(nil), lcps[src][lo:hi]...)
			if len(l) > 0 {
				l[0] = 0
			}
			b := merge.Sequence{Strings: r.runs[src][lo:hi], LCPs: l}
			r.buckets[src][dst] = b
			r.enc[src][dst] = wire.EncodeStringsLCP(b.Strings, b.LCPs)
			r.encN += int64(len(r.enc[src][dst]))
		}
	}
	r.merged = make([]merge.Sequence, p)
	for dst := 0; dst < p; dst++ {
		r.merged[dst], _ = merge.MergeLCP(r.into(dst))
	}
	h := fingerprint.New(uint64(seed))
	r.hashes = make([]uint64, 0, in.n)
	for _, s := range in.ref {
		r.hashes = append(r.hashes, h.Finalize(h.Extend(fingerprint.State{}, s, len(s))))
	}
	slices.Sort(r.hashes)
	return r
}

// into returns the p runs destination PE dst merges.
func (r *replay) into(dst int) []merge.Sequence {
	seqs := make([]merge.Sequence, r.p)
	for src := range seqs {
		seqs[src] = r.buckets[src][dst]
	}
	return seqs
}

// time calls fn under a span named name, minReps times and then while the
// layer's slot lasts; prep runs untimed before each call. It returns the
// median seconds of one call.
func (r *replay) time(name string, count int64, prep, fn func()) float64 {
	var ds []float64
	t0 := time.Now()
	for len(ds) < minReps || (time.Since(t0) < r.slot && len(ds) < maxReps) {
		if prep != nil {
			prep()
		}
		id := r.log.begin(name, r.parent)
		fn()
		ds = append(ds, r.log.end(id, count).Seconds())
	}
	r.reps[name] = len(ds)
	return median(ds)
}

type layerFn func(m metricSet) error

func (r *replay) layers() []layerFn {
	return []layerFn{
		r.strsortLayer, r.partitionLayer, r.wireLayer, r.golombLayer,
		r.dupdetectLayer, r.commLayer, r.codecLayer, r.localLayer, r.tcpLayer,
		r.mergeLayer, r.spillLayer,
	}
}

func (r *replay) run(m metricSet) error {
	r.parent = r.log.begin("replay", 0)
	defer r.log.end(r.parent, int64(r.in.n))
	for _, l := range r.layers() {
		if err := l(m); err != nil {
			return err
		}
		runtime.GC()
	}
	return nil
}

func (r *replay) nsPerStr(sec float64) float64 { return sec * 1e9 / float64(r.in.n) }

func (r *replay) strsortLayer(m metricSet) error {
	n := int64(r.in.n)
	scratch := make([][][]byte, r.p)
	copyIn := func() {
		for pe := range scratch {
			scratch[pe] = append(scratch[pe][:0], r.in.inputs[pe]...)
		}
	}
	m.set("strsort.seq_ns_per_str", r.nsPerStr(r.time("strsort.SortLCP", n, copyIn, func() {
		for _, ss := range scratch {
			strsort.SortLCP(ss, nil)
		}
	})), "ns")
	pool := par.New(r.width)
	m.set("strsort.par_ns_per_str", r.nsPerStr(r.time("strsort.ParallelSortLCP", n, copyIn, func() {
		for _, ss := range scratch {
			strsort.ParallelSortLCP(pool, ss, nil, nil)
		}
	})), "ns")
	var whole [][]byte
	m.set("strsort.whole_input_s", r.time("strsort.SortLCP whole input", n, func() {
		whole = whole[:0]
		for _, ss := range r.in.inputs {
			whole = append(whole, ss...)
		}
	}, func() { strsort.SortLCP(whole, nil) }), "s")
	return nil
}

func (r *replay) partitionLayer(m metricSet) error {
	m.set("partition.buckets_ns_per_str", r.nsPerStr(r.time("partition.Buckets", int64(r.in.n), nil, func() {
		for _, run := range r.runs {
			partition.Buckets(run, r.splits)
		}
	})), "ns")
	parts := max(2, r.width)
	runs := make([][][][]byte, r.p)
	for dst := range runs {
		for _, b := range r.into(dst) {
			runs[dst] = append(runs[dst], b.Strings)
		}
	}
	sec := r.time("partition.SplitPoints", int64(r.p), nil, func() {
		for _, rs := range runs {
			partition.SplitPoints(rs, nil, parts)
		}
	})
	m.set("partition.splitpoints_us", sec*1e6/float64(r.p), "us")
	return nil
}

func (r *replay) wireLayer(m metricSet) error {
	mb := float64(r.encN) / 1e6
	var buf []byte
	m.set("wire.encode_mb_s", mb/r.time("wire.AppendStringsLCP", r.encN, nil, func() {
		for _, row := range r.buckets {
			for _, b := range row {
				buf = wire.AppendStringsLCP(buf[:0], b.Strings, b.LCPs)
			}
		}
	}), "MB/s")
	var derr error
	m.set("wire.decode_mb_s", mb/r.time("wire.DecodeStringsLCP", r.encN, nil, func() {
		for _, row := range r.enc {
			for _, e := range row {
				if _, _, err := wire.DecodeStringsLCP(e); err != nil {
					derr = err
				}
			}
		}
	}), "MB/s")
	if derr != nil {
		return derr
	}
	m.set("wire.runreader_mb_s", mb/r.time("wire.RunReader", r.encN, nil, func() {
		for _, row := range r.enc {
			for _, e := range row {
				if err := readRun(e); err != nil {
					derr = err
				}
			}
		}
	}), "MB/s")
	return derr
}

// readRun feeds one encoded run to a RunReader in frame-sized chunks,
// draining decoded strings as they become available.
func readRun(e []byte) error {
	rr := wire.NewRunReader(wire.RunStringsLCP)
	drain := func() error {
		for {
			_, ok, err := rr.Next()
			if err != nil || !ok {
				return err
			}
		}
	}
	for off := 0; off < len(e); off += frameBytes {
		rr.Feed(e[off:min(off+frameBytes, len(e))])
		if err := drain(); err != nil {
			return err
		}
	}
	rr.Finish()
	if err := drain(); err != nil {
		return err
	}
	if !rr.Done() {
		return fmt.Errorf("wire: run reader did not finish")
	}
	return nil
}

func (r *replay) golombLayer(m metricSet) error {
	n := float64(len(r.hashes))
	var msg []byte
	m.set("golomb.encode_ns_per_val", r.time("golomb.EncodeSorted", int64(n), nil, func() {
		msg = golomb.EncodeSorted(r.hashes)
	})*1e9/n, "ns")
	var derr error
	m.set("golomb.decode_ns_per_val", r.time("golomb.DecodeSorted", int64(n), nil, func() {
		_, derr = golomb.DecodeSorted(msg)
	})*1e9/n, "ns")
	m.set("golomb.bits_per_val", float64(8*len(msg))/n, "bits")
	return derr
}

func (r *replay) dupdetectLayer(m metricSet) error {
	var mach *comm.Machine
	iters := make([]int, r.p)
	var err error
	sec := r.time("dupdetect.ApproxDist", int64(r.in.n), func() { mach = comm.New(r.p) }, func() {
		err = mach.Run(func(c *comm.Comm) error {
			res := dupdetect.ApproxDist(c, r.in.inputs[c.Rank()], dupdetect.Options{
				Golomb: true, Seed: uint64(r.seed), GroupID: 1,
			})
			iters[c.Rank()] = res.Iterations
			return nil
		})
	})
	m.set("dupdetect.approxdist_ms", sec*1e3, "ms")
	m.set("dupdetect.bytes_per_str", float64(mach.Report().TotalBytesSent())/float64(r.in.n), "B")
	m.set("dupdetect.iterations", float64(iters[0]), "count")
	return err
}

// alltoallv runs the Step-3 exchange of the encoded buckets as one
// IAlltoallv+Wait per PE on the machine.
func (r *replay) alltoallv(mach *comm.Machine) error {
	return mach.Run(func(c *comm.Comm) error {
		g := comm.NewGroup(c, comm.WorldRanks(r.p), 1)
		got := g.IAlltoallv(r.enc[c.Rank()]).Wait()
		for src, b := range got {
			if len(b) != len(r.enc[src][c.Rank()]) {
				return fmt.Errorf("alltoallv: %d bytes from PE %d, want %d", len(b), src, len(r.enc[src][c.Rank()]))
			}
		}
		return nil
	})
}

func (r *replay) commLayer(m metricSet) error {
	var mach *comm.Machine
	var err error
	sec := r.time("comm.IAlltoallv", r.encN, func() { mach = comm.New(r.p) }, func() { err = r.alltoallv(mach) })
	m.set("comm.alltoallv_ms", sec*1e3, "ms")
	return err
}

func (r *replay) codecLayer(m metricSet) error {
	for _, name := range []string{"lcp", "flate"} {
		var mach *comm.Machine
		var err error
		sec := r.time("codec."+name+" IAlltoallv", r.encN, func() {
			f, ferr := codec.WrapFabric(local.New(r.p), codec.Config{Name: name})
			if ferr != nil {
				err = ferr
				return
			}
			mach = comm.NewOver(f)
		}, func() {
			if err == nil {
				err = r.alltoallv(mach)
			}
		})
		if err != nil {
			return err
		}
		rep := mach.Report()
		raw := float64(rep.TotalBytesSent())
		m.set("codec."+name+"_mb_s", raw/1e6/sec, "MB/s")
		m.set("codec."+name+"_ratio", float64(rep.TotalWireBytesSent())/raw, "ratio")
	}
	return nil
}

// exchangeFrames moves every PE's encoded buckets to their destinations in
// frame-sized messages over the fabric's raw endpoints. It returns the
// frames and bytes that crossed between distinct PEs.
func (r *replay) exchangeFrames(f transport.Fabric, tag int) (frames, bytes int64, err error) {
	p := r.p
	chunks := func(b []byte) [][]byte {
		var out [][]byte
		for off := 0; off < len(b) || off == 0; off += frameBytes {
			out = append(out, b[off:min(off+frameBytes, len(b))])
		}
		return out
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if x := recover(); x != nil {
					errs[rank] = fmt.Errorf("PE %d: %v", rank, x)
				}
			}()
			ep := f.Endpoint(rank)
			for dst := 0; dst < p; dst++ {
				if dst != rank {
					for _, fr := range chunks(r.enc[rank][dst]) {
						ep.Send(dst, tag, fr)
					}
				}
			}
			for src := 0; src < p; src++ {
				if src != rank {
					for range chunks(r.enc[src][rank]) {
						ep.Release(ep.Recv(src, tag))
					}
				}
			}
		}(rank)
	}
	wg.Wait()
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			if src != dst {
				frames += int64(len(chunks(r.enc[src][dst])))
				bytes += int64(len(r.enc[src][dst]))
			}
		}
	}
	for _, e := range errs {
		if e != nil {
			return 0, 0, e
		}
	}
	return frames, bytes, nil
}

func (r *replay) localLayer(m metricSet) error {
	var f transport.Fabric
	var nb int64
	var err error
	sec := r.time("local frames", r.encN, func() { f = local.New(r.p) }, func() {
		_, nb, err = r.exchangeFrames(f, 1)
	})
	m.set("local.mb_s", float64(nb)/1e6/sec, "MB/s")
	return err
}

func (r *replay) tcpLayer(m metricSet) error {
	var err error
	sec := r.time("tcp.NewLoopback+Close", int64(r.p), nil, func() {
		f, ferr := tcp.NewLoopback(r.p)
		if ferr != nil {
			err = ferr
			return
		}
		if cerr := f.Close(); cerr != nil {
			err = cerr
		}
	})
	if err != nil {
		return err
	}
	m.set("tcp.setup_ms", sec*1e3, "ms")
	f, err := tcp.NewLoopback(r.p)
	if err != nil {
		return err
	}
	tag := 0
	var frames, nb int64
	sec = r.time("tcp frames", r.encN, nil, func() {
		tag++
		if err == nil {
			frames, nb, err = r.exchangeFrames(f, tag)
		}
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	m.set("tcp.mb_s", float64(nb)/1e6/sec, "MB/s")
	m.set("tcp.frames_per_s", float64(frames)/sec, "1/s")
	return err
}

func (r *replay) mergeLayer(m metricSet) error {
	n := int64(r.in.n)
	var work int64
	m.set("merge.eager_ns_per_str", r.nsPerStr(r.time("merge.MergeLCP", n, nil, func() {
		work = 0
		for dst := 0; dst < r.p; dst++ {
			_, w := merge.MergeLCP(r.into(dst))
			work += w
		}
	})), "ns")
	m.set("merge.work_per_str", float64(work)/float64(n), "count")
	pool := par.New(r.width)
	m.set("merge.par_ns_per_str", r.nsPerStr(r.time("merge.MergeLCPPar", n, nil, func() {
		for dst := 0; dst < r.p; dst++ {
			merge.MergeLCPPar(pool, r.into(dst), 0)
		}
	})), "ns")
	var srcs [][]merge.Source
	sources := func() {
		srcs = make([][]merge.Source, r.p)
		for dst := range srcs {
			for _, b := range r.into(dst) {
				srcs[dst] = append(srcs[dst], &merge.SliceSource{Seq: b})
			}
		}
	}
	m.set("merge.stream_ns_per_str", r.nsPerStr(r.time("merge.MergeStream", n, sources, func() {
		for _, ss := range srcs {
			merge.MergeStream(ss, merge.StreamOptions{LCP: true})
		}
	})), "ns")
	var err error
	m.set("merge.sink_ns_per_str", r.nsPerStr(r.time("merge.MergeStreamSink", n, sources, func() {
		for dst, ss := range srcs {
			if e := r.withRunWriter(dst, func(rw *spill.RunWriter) error {
				_, _, e := merge.MergeStreamSink(ss, merge.StreamOptions{LCP: true}, rw.Add)
				return e
			}); e != nil {
				err = e
			}
		}
	})), "ns")
	return err
}

// withRunWriter writes one sorted-run file for dst through fn.
func (r *replay) withRunWriter(dst int, fn func(rw *spill.RunWriter) error) error {
	f, err := os.Create(r.runPath(dst))
	if err != nil {
		return err
	}
	defer f.Close()
	rw, err := spill.NewRunWriter(f, spill.RunWriterOpts{LCP: true}, nil, 0)
	if err != nil {
		return err
	}
	if err := fn(rw); err != nil {
		return err
	}
	if err := rw.Close(); err != nil {
		return err
	}
	return f.Close()
}

func (r *replay) runPath(dst int) string {
	return filepath.Join(r.dir, fmt.Sprintf("replay-pe%d.run", dst))
}

func (r *replay) spillLayer(m metricSet) error {
	defer func() {
		for dst := 0; dst < r.p; dst++ {
			os.Remove(r.runPath(dst))
		}
	}()
	mb := float64(r.in.bytes) / 1e6
	var err error
	m.set("spill.runwrite_mb_s", mb/r.time("spill.RunWriter", r.in.bytes, nil, func() {
		for dst, seq := range r.merged {
			if e := r.withRunWriter(dst, func(rw *spill.RunWriter) error {
				for i, s := range seq.Strings {
					if e := rw.Add(s, seq.LCPs[i], 0); e != nil {
						return e
					}
				}
				return nil
			}); e != nil {
				err = e
			}
		}
	}), "MB/s")
	if err != nil {
		return err
	}
	m.set("spill.runread_mb_s", mb/r.time("spill.RunScanner", r.in.bytes, nil, func() {
		for dst, seq := range r.merged {
			if e := r.scanRun(dst, seq.Len()); e != nil {
				err = e
			}
		}
	}), "MB/s")
	if err != nil {
		return err
	}
	var pool *spill.Pool
	pages := par.New(r.width)
	sec := r.time("spill.File", r.encN, func() {
		if pool != nil {
			pool.Close()
		}
		pool, err = spill.NewPool(spill.Config{Budget: 1 << 20, Dir: r.dir}, pages)
	}, func() {
		if err == nil {
			err = r.pageRoundTrip(pool)
		}
	})
	if pool != nil {
		if cerr := pool.Close(); err == nil {
			err = cerr
		}
	}
	m.set("spill.page_mb_s", float64(r.encN)/1e6/sec, "MB/s")
	return err
}

func (r *replay) scanRun(dst, want int) error {
	f, err := os.Open(r.runPath(dst))
	if err != nil {
		return err
	}
	defer f.Close()
	sc, err := spill.NewRunScanner(f)
	if err != nil {
		return err
	}
	got := 0
	for {
		_, _, _, ok, err := sc.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		got++
	}
	if got != want {
		return fmt.Errorf("spill: run %d has %d items, want %d", dst, got, want)
	}
	return nil
}

// pageRoundTrip appends every encoded bucket to one page file, finishes
// it, and reads it back in page-sized spans.
func (r *replay) pageRoundTrip(pool *spill.Pool) error {
	f, err := pool.CreateFile("replay")
	if err != nil {
		return err
	}
	defer f.Close()
	for _, row := range r.enc {
		for _, e := range row {
			f.Append(e)
		}
	}
	if _, err := f.Finish(); err != nil {
		return err
	}
	var off int64
	for {
		b, err := f.ReadSpan(off, pool.PageSize())
		if err != nil {
			return err
		}
		if len(b) == 0 {
			break
		}
		off += int64(len(b))
	}
	if off != r.encN {
		return fmt.Errorf("spill: read back %d of %d bytes", off, r.encN)
	}
	return nil
}
