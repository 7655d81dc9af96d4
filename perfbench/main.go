// Command perfbench is the repository's benchmark of the distributed string
// sorter: end-to-end Sort metrics per named workload, and a separate traced
// run that times each layer's public functions on data derived from the
// same inputs. See README.md for the workloads and the metric map.
//
//	bash perfbench/run.sh --workload dn-ms --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is the
// full report: every metric, sample counts and host metadata.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dss/stringsort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the last output line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// report is the full record of one run, printed before the result line.
type report struct {
	Meta    meta           `json:"meta"`
	Metrics metricSet      `json:"metrics"`
	Extra   map[string]any `json:"extra"`
	Sorts   int            `json:"sorts"`
	Errors  []string       `json:"errors,omitempty"`
}

// minSamples keeps the tail percentile defined: it needs ten samples
// beyond it, and one more to stand on.
const minSamples = 11

// workDir holds the spill, run, trace and span files, inside the checkout.
const workDir = ".bench_build/perfbench"

// setupReps is how many undisturbed set-ups an end-to-end run makes;
// setup_s is their median.
const setupReps = 3

func main() {
	start, startSteal := time.Now(), stealSeconds()
	var (
		name    = flag.String("workload", "", "workload to run (dn-ms, cc-pdms-tcp, dna-spill)")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measurement window in seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	// One process, PEs as goroutines, never more Ps than CPUs.
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fatal(err)
	}
	window := time.Duration(*seconds * float64(time.Second))
	var rep *report
	if *traced == 0 {
		rep, err = endToEnd(w, *seed, 1, window, workDir, start, startSteal)
	} else {
		rep, err = layers(w, *seed, 1, window, workDir)
	}
	if err != nil {
		fatal(err)
	}
	rep.Meta.Trace = *traced
	rep.Meta.Seconds = *seconds
	failed := len(rep.Errors)
	line, err := json.Marshal(map[string]any{"report": rep})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	line, err = json.Marshal(result{
		Correct: failed == 0, Attempted: rep.Sorts, Failed: failed, Metrics: rep.Metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// sample is the measurement of one timed sort.
type sample struct {
	wall, cpu, alloc float64 // seconds, seconds, bytes
	steal            float64 // seconds the hypervisor withheld the CPUs
	st               stringsort.Stats
}

// sorter runs sorts of one instance, checks every output outside the timed
// region, and keeps count of attempts and failures.
type sorter struct {
	in     *instance
	cfg    stringsort.Config
	sorts  int
	errors []string
}

// run performs one sort preceded by a full GC. ok is false when the sort
// errored or its output was wrong.
func (s *sorter) run() (smp sample, ok bool) {
	runtime.GC()
	c0, a0, st0 := cpuSeconds(), allocBytes(), stealSeconds()
	res, wall, err := timedSort(s.in, s.cfg)
	c1, a1, st1 := cpuSeconds(), allocBytes(), stealSeconds()
	s.sorts++
	if err == nil {
		err = s.in.check(res)
	}
	if err != nil {
		s.errors = append(s.errors, err.Error())
		fmt.Fprintln(os.Stderr, "perfbench: sort failed:", err)
		return sample{}, false
	}
	return sample{wall: wall.Seconds(), cpu: c1 - c0, alloc: a1 - a0, steal: st1 - st0, st: res.Stats}, true
}

// stealLimit is the share of the machine's CPU time the hypervisor may
// withhold during a measurement before it counts as disturbed: on a shared
// host other guests can take a vCPU away for a minute at a time, which
// doubles a sort's wall time without the program doing anything different.
// Undisturbed sorts here see under 10%; disturbed ones about half.
const stealLimit = 0.2

// disturbed reports whether the hypervisor withheld more than stealLimit of
// the machine's CPU time during an interval of wall seconds.
func disturbed(wall, steal float64) bool {
	return steal > stealLimit*wall*float64(runtime.NumCPU())
}

// loop runs timed sorts until the window has passed with at least minN
// undisturbed samples, or until twice the window has passed. It returns the
// undisturbed samples, or every sample when fewer than minN were
// undisturbed, and the number of disturbed ones.
func (s *sorter) loop(window time.Duration, minN int) ([]sample, int) {
	var all, clean []sample
	t0 := time.Now()
	for {
		el := time.Since(t0)
		if el >= window && len(clean) >= minN || el >= 2*window && len(all) >= minN {
			break
		}
		smp, ok := s.run()
		if !ok {
			if len(s.errors) > minN {
				break // a broken program: stop early, the result says so
			}
			continue
		}
		all = append(all, smp)
		if !disturbed(smp.wall, smp.steal) {
			clean = append(clean, smp)
		}
	}
	if len(clean) < minN {
		return all, len(all) - len(clean)
	}
	return clean, len(all) - len(clean)
}

// endToEnd is the untraced run: set up (inputs, reference, warm-up sort)
// until setupReps set-ups were undisturbed or twice that many were tried,
// then sort in a closed loop for the window.
func endToEnd(w workload, seed int64, scale float64, window time.Duration, workDir string, start time.Time, startSteal float64) (*report, error) {
	var setups, cleanSetups []float64
	var s *sorter
	var sorts int
	var errs []string
	for i := 0; len(cleanSetups) < setupReps && i < 2*setupReps; i++ {
		t0, st0 := time.Now(), stealSeconds()
		if i == 0 {
			t0, st0 = start, startSteal
		}
		if s != nil {
			sorts, errs = sorts+s.sorts, append(errs, s.errors...)
			s = nil
			runtime.GC()
		}
		in := newInstance(w, seed, scale)
		s = &sorter{in: in, cfg: sortConfig(w, seed, workDir)}
		s.run() // warm-up, untimed but checked
		d := time.Since(t0).Seconds()
		setups = append(setups, d)
		if !disturbed(d, stealSeconds()-st0) {
			cleanSetups = append(cleanSetups, d)
		}
	}
	if len(cleanSetups) == 0 {
		cleanSetups = setups
	}
	smps, nDisturbed := s.loop(window, minSamples)
	s.sorts, s.errors = s.sorts+sorts, append(errs, s.errors...)
	rep := newReport(w, seed, s)
	m := rep.Metrics
	walls := field(smps, func(x sample) float64 { return x.wall })
	mb := float64(s.in.bytes) / 1e6
	m.set("sort_s", median(walls), "s")
	tail, pct := tailPercentile(walls)
	m.set("sort_s_tail", tail, "s")
	m.set("sort_mb_s", median(field(smps, func(x sample) float64 { return mb / x.wall })), "MB/s")
	m.set("cpu_s", median(field(smps, func(x sample) float64 { return x.cpu })), "s")
	m.set("alloc_mb", median(field(smps, func(x sample) float64 { return x.alloc / 1e6 })), "MB")
	m.set("setup_s", median(cleanSetups), "s")
	det := deterministic(smps, s.in.n)
	m.set("bytes_per_str", det["bytes_per_str"], "B")
	m.set("wire_bytes_per_str", det["wire_bytes_per_str"], "B")
	m.set("model_ms", det["model_ms"], "ms")
	rep.Extra["samples"] = len(smps)
	rep.Extra["sort_s_samples"] = walls
	rep.Extra["steal_s_samples"] = field(smps, func(x sample) float64 { return x.steal })
	rep.Extra["sort_s_tail_percentile"] = pct
	rep.Extra["setup_s_samples"] = setups
	rep.Extra["disturbed_samples"] = nDisturbed
	rep.Extra["error_rate"] = float64(len(rep.Errors)) / float64(max(1, rep.Sorts))
	rep.Extra["peak_mem_mb"] = median(field(smps, func(x sample) float64 { return float64(x.st.PeakMemBytes) / 1e6 }))
	rep.Extra["deterministic"] = det
	rep.Extra["deterministic_stable"] = stable(smps, s.in.n)
	return rep, nil
}

func newReport(w workload, seed int64, s *sorter) *report {
	return &report{
		Meta:    hostMeta(w, seed, s.in),
		Metrics: metricSet{},
		Extra:   map[string]any{},
		Sorts:   s.sorts,
		Errors:  s.errors,
	}
}

// deterministic returns the counters that must not vary between sorts of
// one input: the paper's communication volume, its α-β model time and the
// characters inspected. Values are taken from the first sample.
func deterministic(smps []sample, n int) map[string]float64 {
	if len(smps) == 0 {
		return map[string]float64{}
	}
	return detOf(smps[0].st, n)
}

func detOf(st stringsort.Stats, n int) map[string]float64 {
	return map[string]float64{
		"bytes_per_str":      st.BytesPerString,
		"wire_bytes_per_str": st.WireBytesPerString,
		"model_ms":           st.ModelTime * 1e3,
		"core.work_per_str":  float64(st.Work) / float64(n),
		"comm.messages":      float64(st.Messages),
	}
}

// stable reports whether every sample's deterministic counters equal the
// first sample's exactly.
func stable(smps []sample, n int) bool {
	for _, x := range smps {
		for k, v := range detOf(x.st, n) {
			if v != detOf(smps[0].st, n)[k] {
				return false
			}
		}
	}
	return true
}

func field(smps []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(smps))
	for i, x := range smps {
		out[i] = f(x)
	}
	return out
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stealSeconds is the machine-wide CPU time the hypervisor gave to other
// guests while this one's vCPUs wanted to run (the steal column of
// /proc/stat, in USER_HZ ticks); 0 where the kernel does not report it.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// allocBytes is the cumulative Go heap allocation of the process.
func allocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}
