package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"dss/stringsort"
)

const testScale = 0.02

// TestDeterministicCounters pins the counters that only an algorithmic
// change may move: they must be identical across every sort of a run and
// across separate runs of the same seed.
func TestDeterministicCounters(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var first map[string]float64
			for run := 0; run < 2; run++ {
				rep, err := endToEnd(w, 7, testScale, 0, t.TempDir(), time.Now(), stealSeconds())
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Errors) > 0 {
					t.Fatalf("run %d: %v", run, rep.Errors)
				}
				if !rep.Extra["deterministic_stable"].(bool) {
					t.Fatalf("run %d: deterministic counters differ between sorts", run)
				}
				det := rep.Extra["deterministic"].(map[string]float64)
				if len(det) != 5 {
					t.Fatalf("run %d: %d deterministic counters, want 5", run, len(det))
				}
				if run == 0 {
					first = det
					continue
				}
				for k, v := range det {
					if v != first[k] {
						t.Errorf("%s: %v in run 0, %v in run 1", k, first[k], v)
					}
				}
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON runs every workload in both modes at a
// small scale and checks that each prints exactly the metrics BENCHMARK.json
// declares for that mode, that the end-to-end ones are never zero, and
// that every output passed the oracle.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	declared := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	for _, w := range workloads {
		for mode, want := range []map[string]string{declared(spec.EndToEnd), declared(spec.PerLayer)} {
			var rep *report
			if mode == 0 {
				rep, err = endToEnd(w, 3, testScale, 0, t.TempDir(), time.Now(), stealSeconds())
			} else {
				rep, err = layers(w, 3, testScale, time.Second, t.TempDir())
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Errors) > 0 {
				t.Fatalf("%s trace %d: %v", w.name, mode, rep.Errors)
			}
			var got []string
			for name, m := range rep.Metrics {
				got = append(got, name)
				if want[name] != m.Unit {
					t.Errorf("%s trace %d: metric %s unit %q, BENCHMARK.json says %q", w.name, mode, name, m.Unit, want[name])
				}
				if mode == 0 && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, name)
				}
			}
			if len(got) != len(want) {
				sort.Strings(got)
				t.Errorf("%s trace %d: prints %d metrics %v, BENCHMARK.json declares %d", w.name, mode, len(got), got, len(want))
			}
		}
	}
}

// TestOracleRejectsWrongOutput makes sure the output check behind
// error_rate fails on a misordered fragment and on a wrong LCP.
func TestOracleRejectsWrongOutput(t *testing.T) {
	w, _ := findWorkload("dn-ms")
	in := newInstance(w, 1, testScale)
	cfg := sortConfig(w, 1, t.TempDir())
	sortOnce := func() *stringsort.Result {
		res, err := stringsort.Sort(in.inputs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.check(res); err != nil {
			t.Fatalf("correct output rejected: %v", err)
		}
		return res
	}
	res := sortOnce()
	ss := res.PEs[0].Strings
	ss[0], ss[1] = ss[1], ss[0]
	if in.check(res) == nil {
		t.Error("swapped strings accepted")
	}
	res = sortOnce()
	res.PEs[1].LCPs[1]++
	if in.check(res) == nil {
		t.Error("wrong LCP accepted")
	}
	res = sortOnce()
	res.PEs[2].Strings = res.PEs[2].Strings[1:]
	res.PEs[2].LCPs = res.PEs[2].LCPs[1:]
	if in.check(res) == nil {
		t.Error("missing string accepted")
	}
}

func TestTailPercentile(t *testing.T) {
	vs := make([]float64, 40)
	for i := range vs {
		vs[i] = float64(40 - i)
	}
	v, pct := tailPercentile(vs)
	// 40 samples: the 30th smallest has exactly ten above it.
	if v != 30 || pct != 75 {
		t.Fatalf("tail = %v at p%d, want 30 at p75", v, pct)
	}
	if m := median(vs); m != 20.5 {
		t.Fatalf("median = %v, want 20.5", m)
	}
	if !slices.Equal(vs[:2], []float64{40, 39}) {
		t.Fatal("median/tail reordered their input")
	}
}
