// Package stats provides per-PE, per-phase accounting of communication
// volume, message counts and local work for the distributed string sorting
// algorithms, together with the α-β machine cost model from Section II of
// the paper (Bingmann, Sanders, Schimek: "Communication-Efficient String
// Sorting", IPDPS 2020).
//
// The paper reports two metrics per experiment: running time and bytes sent
// per string. Communication volume is hardware independent and is counted
// exactly at the send boundary of the message-passing substrate. Running
// time on the original 1280-core InfiniBand cluster cannot be measured
// faithfully on a single host, so the harness additionally computes a
// deterministic model time
//
//	T = Σ_phase [ max_PE(work)/Rate + α·max_PE(messages) + β·max_PE(bytes) ]
//
// which preserves the relative shapes (who wins, where the crossovers fall)
// that the paper's evaluation establishes.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Phase identifies an algorithm phase for accounting purposes. Every send,
// receive and unit of local work is attributed to the phase the PE is
// currently in.
type Phase int

// Phases of the distributed string sorting algorithms. They correspond to
// the four steps of Figure 1 of the paper plus the prefix-doubling step
// (1+ε) of PDMS and a catch-all for everything else.
const (
	PhaseOther     Phase = iota // setup, redistribution, verification
	PhaseLocalSort              // Step 1: sequential local sorting
	PhaseDupDetect              // Step 1+ε: distinguishing prefix approximation
	PhasePartition              // Step 2: sampling and splitter selection
	PhaseExchange               // Step 3: all-to-all string exchange
	PhaseMerge                  // Step 4: multiway merging
	NumPhases
)

// String returns the human-readable phase name.
func (ph Phase) String() string {
	switch ph {
	case PhaseOther:
		return "other"
	case PhaseLocalSort:
		return "local_sort"
	case PhaseDupDetect:
		return "dup_detect"
	case PhasePartition:
		return "partition"
	case PhaseExchange:
		return "exchange"
	case PhaseMerge:
		return "merge"
	default:
		return fmt.Sprintf("phase(%d)", int(ph))
	}
}

// PhaseCounters accumulates the per-phase totals of one PE.
type PhaseCounters struct {
	BytesSent int64 // payload bytes sent to other PEs (self-sends excluded)
	BytesRecv int64 // payload bytes received from other PEs
	Messages  int64 // number of point-to-point messages sent to other PEs
	Work      int64 // local work units (characters inspected/moved)
}

// WireCounters accumulates the post-codec byte totals of one PE: the bytes
// that actually crossed the fabric after the transport's wire codec ran, as
// opposed to the raw model bytes of PhaseCounters. Without a codec the two
// are equal; with one, Sent/Recv shrink (or, for incompressible frames,
// grow by the per-frame codec header). Wire bytes never feed the α-β model
// time — they are the second accounting channel the figures report
// alongside the paper's raw volume.
type WireCounters struct {
	Sent int64 // post-codec bytes shipped to other PEs (self-sends excluded)
	Recv int64 // post-codec bytes received from other PEs
}

// PE holds the accounting state of a single processing element. A PE value
// is owned by exactly one goroutine while an algorithm runs; it must only be
// read by other goroutines after the machine has finished.
//
// The counters themselves live in the embedded Counters.
type PE struct {
	Rank int
	Counters
}

// Counters is the accounting state of one PE, gathered across processes
// by comm.AllgatherReport. Every field is an int64 or a fixed-size array
// of them, so encoding/binary serializes the whole struct in one call: a
// new counter is one field here and nothing else.
//
// Phases holds the deterministic counters the α-β model time and the
// bytes-per-string figures are computed from; they are bit-identical across
// transports and runs. Wall and Overlap are wall-clock measurements of the
// split-phase overlap model: nondeterministic, never fed into ModelTime,
// and excluded from cross-backend statistics comparisons.
type Counters struct {
	Phases [NumPhases]PhaseCounters
	// Wire[ph] counts the post-codec bytes of frames encoded or decoded
	// while ph was the wire-accounting phase. The machine-wide totals are
	// deterministic for a fixed codec (frame encodings are pure functions
	// of their payloads); the per-phase split is attribution-grade only —
	// a split-phase collective drained in a later phase bills its frames'
	// wire bytes there, while the raw counters stay with the posting phase.
	// Compare totals, not per-phase wire values, across seam modes.
	Wire [NumPhases]WireCounters
	// Wall[ph] is the wall-clock nanoseconds this PE spent with ph as its
	// accounting phase (accumulated at every comm.SetPhase transition).
	Wall [NumPhases]int64
	// Overlap[ph] is the wall-clock nanoseconds of split-phase collective
	// time hidden under compute: for every Pending posted in phase ph, the
	// span from posting to the last drained payload minus the time the PE
	// actually spent blocked waiting on it. Zero for blocking collectives.
	Overlap [NumPhases]int64
	// Cores is the width of the intra-PE work pool this PE ran with, and
	// CPU[ph] the summed busy nanoseconds of all pool workers (caller
	// included) inside parallel regions attributed to phase ph. CPU is the
	// multi-core evidence channel: CPU[ph] > Wall[ph] proves real parallel
	// execution in that phase, since a lone goroutine cannot be busy longer
	// than the wall. Like Wall and Overlap these are measurements — never
	// model inputs, never part of deterministic cross-run comparisons.
	Cores int64
	CPU   [NumPhases]int64
	// MergeStartNS and ExchangeDoneNS are wall-clock milestones of the
	// budget pipeline's chunked seam, in UnixNano (0 = not recorded; in-RAM
	// runs never record them). MergeStartNS is stamped when the Step-4 sink
	// merge emits its first string; ExchangeDoneNS when the LAST Step-3
	// payload of the chunked exchange arrived. MergeStartNS <
	// ExchangeDoneNS means merging began while exchange frames were still
	// in flight.
	// Like Wall and Overlap these are measurements, never model inputs.
	MergeStartNS   int64
	ExchangeDoneNS int64
	// SpillBytesWritten, SpillBytesRead and PeakLiveBytes are the gauges of
	// the out-of-core pipeline: bytes the PE's spill pool wrote to page
	// files, bytes it paged back in ahead of the merge cursor, and the
	// high-water mark of metered live arena bytes. Like Wall and Overlap
	// these live on the measured channel — WHAT spills depends on arrival
	// timing, so the values vary run to run and across transports, and they
	// never feed the model time or the deterministic comparisons. All three
	// are zero when no memory budget was configured.
	SpillBytesWritten int64
	SpillBytesRead    int64
	PeakLiveBytes     int64
	// Reconnects, ResentFrames and ResentBytes are the transport's
	// failure-recovery gauges: connections re-established after a drop,
	// and the frames/bytes replayed from the resend ring to resume them
	// (tcp only; zero on the local backend and on undisturbed runs). They
	// live on the measured channel with Wall and Overlap: recovery happens
	// below the accounting boundary, so the deterministic model statistics
	// are bit-identical whether or not connections died mid-run.
	Reconnects   int64
	ResentFrames int64
	ResentBytes  int64
}

// TotalWire returns the sum of the PE's wire counters over all phases.
func (pe *PE) TotalWire() WireCounters {
	var t WireCounters
	for ph := Phase(0); ph < NumPhases; ph++ {
		t.Sent += pe.Wire[ph].Sent
		t.Recv += pe.Wire[ph].Recv
	}
	return t
}

// Add accumulates the counters of a phase.
func (pe *PE) Add(ph Phase, c PhaseCounters) {
	p := &pe.Phases[ph]
	p.BytesSent += c.BytesSent
	p.BytesRecv += c.BytesRecv
	p.Messages += c.Messages
	p.Work += c.Work
}

// Total returns the sum of all phase counters of the PE.
func (pe *PE) Total() PhaseCounters {
	var t PhaseCounters
	for ph := Phase(0); ph < NumPhases; ph++ {
		c := pe.Phases[ph]
		t.BytesSent += c.BytesSent
		t.BytesRecv += c.BytesRecv
		t.Messages += c.Messages
		t.Work += c.Work
	}
	return t
}

// CostModel holds the α-β machine parameters of Section II plus a local
// compute rate. The defaults are calibrated to a 2013-era InfiniBand 4X FDR
// cluster like ForHLR I: a few microseconds of message startup latency,
// roughly 5 GB/s point-to-point bandwidth per node, and a sequential string
// sorting rate in the hundreds of millions of characters per second.
type CostModel struct {
	Alpha float64 // seconds per message (startup latency)
	Beta  float64 // seconds per payload byte
	Rate  float64 // local work units (characters) per second
}

// DefaultModel returns the calibrated default cost model.
func DefaultModel() CostModel {
	return CostModel{
		Alpha: 2e-6,    // 2 µs startup latency
		Beta:  2.5e-10, // 4 GB/s effective bandwidth
		Rate:  250e6,   // 250 M characters per second local work
	}
}

// Report aggregates the accounting of all PEs of one algorithm run.
type Report struct {
	P     int
	PEs   []*PE
	Model CostModel
}

// NewReport creates a report over the given PEs.
func NewReport(pes []*PE, model CostModel) *Report {
	return &Report{P: len(pes), PEs: pes, Model: model}
}

// phaseMax returns, for one phase, the maxima over all PEs of the individual
// counters (bottleneck values in the sense of the paper's analysis).
func (r *Report) phaseMax(ph Phase) PhaseCounters {
	var m PhaseCounters
	for _, pe := range r.PEs {
		c := pe.Phases[ph]
		if c.BytesSent > m.BytesSent {
			m.BytesSent = c.BytesSent
		}
		if c.BytesRecv > m.BytesRecv {
			m.BytesRecv = c.BytesRecv
		}
		if c.Messages > m.Messages {
			m.Messages = c.Messages
		}
		if c.Work > m.Work {
			m.Work = c.Work
		}
	}
	return m
}

// PhaseTime returns the model time of a single phase: the bottleneck local
// work plus the α-β cost of the bottleneck communication.
func (r *Report) PhaseTime(ph Phase) float64 {
	m := r.phaseMax(ph)
	bytes := m.BytesSent
	if m.BytesRecv > bytes {
		bytes = m.BytesRecv
	}
	return float64(m.Work)/r.Model.Rate +
		r.Model.Alpha*float64(m.Messages) +
		r.Model.Beta*float64(bytes)
}

// ModelTime returns the total model running time: the sum of the per-phase
// bottleneck times. Summing per phase (rather than per PE) reflects that
// the phases are separated by collective operations that act as barriers.
func (r *Report) ModelTime() float64 {
	var t float64
	for ph := Phase(0); ph < NumPhases; ph++ {
		t += r.PhaseTime(ph)
	}
	return t
}

// TotalBytesSent returns the sum over all PEs of bytes sent.
func (r *Report) TotalBytesSent() int64 {
	var b int64
	for _, pe := range r.PEs {
		b += pe.Total().BytesSent
	}
	return b
}

// TotalMessages returns the sum over all PEs of messages sent.
func (r *Report) TotalMessages() int64 {
	var m int64
	for _, pe := range r.PEs {
		m += pe.Total().Messages
	}
	return m
}

// TotalWork returns the sum over all PEs of local work units.
func (r *Report) TotalWork() int64 {
	var w int64
	for _, pe := range r.PEs {
		w += pe.Total().Work
	}
	return w
}

// TotalWireBytesSent returns the sum over all PEs of post-codec bytes that
// actually crossed the fabric. Equal to TotalBytesSent when no codec
// decorates the transport (the comm layer mirrors raw volume into the wire
// counters then); strictly smaller when a compressing codec pays off.
func (r *Report) TotalWireBytesSent() int64 {
	var b int64
	for _, pe := range r.PEs {
		b += pe.TotalWire().Sent
	}
	return b
}

// WireBytesPerString returns the average post-codec communication volume
// per input string — the wire-side counterpart of BytesPerString.
func (r *Report) WireBytesPerString(n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(r.TotalWireBytesSent()) / float64(n)
}

// CompressionRatio returns wire bytes over raw bytes (1.0 means every
// frame shipped verbatim; below 1.0 the codec shrank the traffic). With no
// raw traffic at all the ratio is defined as 1.
func (r *Report) CompressionRatio() float64 {
	raw := r.TotalBytesSent()
	if raw == 0 {
		return 1
	}
	return float64(r.TotalWireBytesSent()) / float64(raw)
}

// MaxBytesSent returns the bottleneck send volume: the maximum over PEs.
func (r *Report) MaxBytesSent() int64 {
	var b int64
	for _, pe := range r.PEs {
		if s := pe.Total().BytesSent; s > b {
			b = s
		}
	}
	return b
}

// MaxBytesRecv returns the bottleneck receive volume: the maximum over PEs
// of bytes received. This is the load-balancing metric of the skew
// experiment — a PE that receives a disproportionate share of characters
// is the straggler of the exchange and merge phases.
func (r *Report) MaxBytesRecv() int64 {
	var b int64
	for _, pe := range r.PEs {
		var recv int64
		for ph := Phase(0); ph < NumPhases; ph++ {
			recv += pe.Phases[ph].BytesRecv
		}
		if recv > b {
			b = recv
		}
	}
	return b
}

// MeanBytesRecv returns the average per-PE receive volume.
func (r *Report) MeanBytesRecv() float64 {
	if len(r.PEs) == 0 {
		return 0
	}
	var sum int64
	for _, pe := range r.PEs {
		for ph := Phase(0); ph < NumPhases; ph++ {
			sum += pe.Phases[ph].BytesRecv
		}
	}
	return float64(sum) / float64(len(r.PEs))
}

// BytesPerString returns the average communication volume per input string,
// the metric of the lower panels of Figures 4 and 5 of the paper.
func (r *Report) BytesPerString(n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(r.TotalBytesSent()) / float64(n)
}

// PhaseWallNS returns the bottleneck wall-clock span of a phase: the
// maximum over PEs of the time spent with that accounting phase active.
// Wall spans are measurements, not model values — they vary run to run.
func (r *Report) PhaseWallNS(ph Phase) int64 {
	var m int64
	for _, pe := range r.PEs {
		if pe.Wall[ph] > m {
			m = pe.Wall[ph]
		}
	}
	return m
}

// MaxWallNS returns the largest per-PE total wall span — roughly the
// elapsed time of the run as seen by its slowest PE.
func (r *Report) MaxWallNS() int64 {
	var m int64
	for _, pe := range r.PEs {
		var w int64
		for ph := Phase(0); ph < NumPhases; ph++ {
			w += pe.Wall[ph]
		}
		if w > m {
			m = w
		}
	}
	return m
}

// TotalOverlapNS returns the total communication time hidden under compute
// by split-phase collectives, summed over all PEs and phases. This is the
// machine-wide "overlap-ms" headline of the overlapped exchange/merge
// pipeline: wall time the bulk-synchronous seam would have spent waiting.
func (r *Report) TotalOverlapNS() int64 {
	var o int64
	for _, pe := range r.PEs {
		for ph := Phase(0); ph < NumPhases; ph++ {
			o += pe.Overlap[ph]
		}
	}
	return o
}

// MaxMergeLeadNS returns the budget pipeline's merge lead: the maximum over
// PEs of how long before its last Step-3 arrival the PE's loser tree
// emitted the first merged string. Positive means merging demonstrably
// began while exchange frames were still in flight; 0 means the milestone
// pair was not recorded (in-RAM run) or no PE got ahead of its exchange.
func (r *Report) MaxMergeLeadNS() int64 {
	var m int64
	for _, pe := range r.PEs {
		if pe.MergeStartNS == 0 || pe.ExchangeDoneNS == 0 {
			continue
		}
		if lead := pe.ExchangeDoneNS - pe.MergeStartNS; lead > m {
			m = lead
		}
	}
	return m
}

// MaxCores returns the largest intra-PE pool width of the run (1 when
// every PE ran sequentially).
func (r *Report) MaxCores() int64 {
	var m int64 = 1
	for _, pe := range r.PEs {
		if pe.Cores > m {
			m = pe.Cores
		}
	}
	return m
}

// TotalCPUNS returns the summed busy nanoseconds of all intra-PE pool
// workers over all PEs and phases — the CPU-seconds actually burned inside
// parallel regions, comparable against MaxWallNS for a machine-wide
// parallel-efficiency read.
func (r *Report) TotalCPUNS() int64 {
	var t int64
	for _, pe := range r.PEs {
		for ph := Phase(0); ph < NumPhases; ph++ {
			t += pe.CPU[ph]
		}
	}
	return t
}

// PhaseCPUNS returns the summed worker busy nanoseconds of one phase over
// all PEs.
func (r *Report) PhaseCPUNS(ph Phase) int64 {
	var t int64
	for _, pe := range r.PEs {
		t += pe.CPU[ph]
	}
	return t
}

// TotalSpillBytesWritten returns the machine-wide bytes spilled to page
// files. Positive proves the out-of-core path actually paged (the smoke
// matrix asserts this under a tiny budget); 0 means everything stayed
// resident.
func (r *Report) TotalSpillBytesWritten() int64 {
	var b int64
	for _, pe := range r.PEs {
		b += pe.SpillBytesWritten
	}
	return b
}

// TotalSpillBytesRead returns the machine-wide bytes paged back in from
// spill files.
func (r *Report) TotalSpillBytesRead() int64 {
	var b int64
	for _, pe := range r.PEs {
		b += pe.SpillBytesRead
	}
	return b
}

// TotalReconnects returns the machine-wide count of connections
// re-established after a drop. Positive proves the run actually survived
// connection loss (the chaos differential tests assert this); 0 means the
// fabric stayed up end to end.
func (r *Report) TotalReconnects() int64 {
	var n int64
	for _, pe := range r.PEs {
		n += pe.Reconnects
	}
	return n
}

// TotalResentFrames returns the machine-wide count of frames replayed from
// resend rings during reconnects.
func (r *Report) TotalResentFrames() int64 {
	var n int64
	for _, pe := range r.PEs {
		n += pe.ResentFrames
	}
	return n
}

// TotalResentBytes returns the machine-wide payload bytes replayed during
// reconnects. Resends live below the accounting boundary: they appear
// here and nowhere in the deterministic counters.
func (r *Report) TotalResentBytes() int64 {
	var n int64
	for _, pe := range r.PEs {
		n += pe.ResentBytes
	}
	return n
}

// MaxPeakLiveBytes returns the bottleneck peak of metered live arena
// bytes: the largest per-PE high-water mark. Under a budget of B every PE
// must stay at B plus the documented fixed overhead allowance — the
// out-of-core differential tests assert exactly that on this accessor.
func (r *Report) MaxPeakLiveBytes() int64 {
	var m int64
	for _, pe := range r.PEs {
		if pe.PeakLiveBytes > m {
			m = pe.PeakLiveBytes
		}
	}
	return m
}

// MaxOverlapNS returns the bottleneck overlap: the maximum over PEs of
// their total hidden communication time. Unlike TotalOverlapNS (a sum of
// per-PE values), this is directly comparable to wall spans.
func (r *Report) MaxOverlapNS() int64 {
	var m int64
	for _, pe := range r.PEs {
		var o int64
		for ph := Phase(0); ph < NumPhases; ph++ {
			o += pe.Overlap[ph]
		}
		if o > m {
			m = o
		}
	}
	return m
}

// WallTable formats the measured per-phase wall spans and overlap as an
// aligned text table. Unlike Table, these columns are wall-clock
// measurements and differ run to run; they are reported separately so the
// deterministic table stays comparable across transports. The column
// labels carry the aggregation: wall spans are bottleneck values (max over
// PEs), overlap is summed PE-milliseconds — the two are deliberately not
// comparable, which is why both say so.
func (r *Report) WallTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %14s %16s %14s\n",
		"phase", "wall_ms (max)", "overlap_ms (sum)", "cpu_ms (sum)")
	for ph := Phase(0); ph < NumPhases; ph++ {
		wall := r.PhaseWallNS(ph)
		var overlap int64
		for _, pe := range r.PEs {
			overlap += pe.Overlap[ph]
		}
		cpu := r.PhaseCPUNS(ph)
		if wall == 0 && overlap == 0 && cpu == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-12s %14.3f %16.3f %14.3f\n",
			ph, float64(wall)/1e6, float64(overlap)/1e6, float64(cpu)/1e6)
	}
	fmt.Fprintf(&b, "%-12s %14.3f %16.3f %14.3f\n",
		"total", float64(r.MaxWallNS())/1e6, float64(r.TotalOverlapNS())/1e6,
		float64(r.TotalCPUNS())/1e6)
	return b.String()
}

// Table formats a per-phase breakdown as an aligned text table.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %14s %14s %10s %14s %10s\n",
		"phase", "bytes_sent", "bytes_recv", "messages", "work", "time_s")
	for ph := Phase(0); ph < NumPhases; ph++ {
		var sent, recv, msgs, work int64
		for _, pe := range r.PEs {
			c := pe.Phases[ph]
			sent += c.BytesSent
			recv += c.BytesRecv
			msgs += c.Messages
			work += c.Work
		}
		if sent == 0 && recv == 0 && msgs == 0 && work == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-12s %14d %14d %10d %14d %10.4f\n",
			ph, sent, recv, msgs, work, r.PhaseTime(ph))
	}
	fmt.Fprintf(&b, "%-12s %14d %14s %10d %14d %10.4f\n",
		"total", r.TotalBytesSent(), "", r.TotalMessages(), r.TotalWork(), r.ModelTime())
	return b.String()
}

// Imbalance returns the ratio of the maximum to the mean per-PE total work,
// a load balancing quality indicator (1.0 is perfect).
func (r *Report) Imbalance() float64 {
	if len(r.PEs) == 0 {
		return 1
	}
	var sum, max int64
	for _, pe := range r.PEs {
		w := pe.Total().Work
		sum += w
		if w > max {
			max = w
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(r.PEs))
	return float64(max) / mean
}

// WorkQuantiles returns the given quantiles (in [0,1]) of per-PE total work.
func (r *Report) WorkQuantiles(qs ...float64) []int64 {
	ws := make([]int64, len(r.PEs))
	for i, pe := range r.PEs {
		ws[i] = pe.Total().Work
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	out := make([]int64, len(qs))
	for i, q := range qs {
		if len(ws) == 0 {
			continue
		}
		idx := int(q * float64(len(ws)-1))
		out[i] = ws[idx]
	}
	return out
}
