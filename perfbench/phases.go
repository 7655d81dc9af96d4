package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// phaseNames are the program's accounting phases as its trace export
// names the per-PE phase spans.
var phaseNames = []string{"local_sort", "dup_detect", "partition", "exchange", "merge"}

// phaseBreakdown reads a Perfetto trace written by Config.Trace and returns,
// per phase, the time the slowest PE spent in it, in ms. Phase spans live on
// each PE's control track (tid 0); a phase entered several times is summed.
func phaseBreakdown(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			TS   float64 `json:"ts"`
			Name string  `json:"name"`
			Args struct {
				V int64 `json:"v"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, err
	}
	type open struct {
		name string
		ts   float64
	}
	stacks := map[int][]open{}
	perPE := map[int]map[string]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "ring dropped events" {
			return nil, fmt.Errorf("trace ring of PE %d dropped %d events", ev.Pid, ev.Args.V)
		}
		if ev.Tid != 0 {
			continue
		}
		switch ev.Ph {
		case "B":
			stacks[ev.Pid] = append(stacks[ev.Pid], open{ev.Name, ev.TS})
		case "E":
			st := stacks[ev.Pid]
			if len(st) == 0 {
				continue
			}
			top := st[len(st)-1]
			stacks[ev.Pid] = st[:len(st)-1]
			if perPE[ev.Pid] == nil {
				perPE[ev.Pid] = map[string]float64{}
			}
			perPE[ev.Pid][top.name] += (ev.TS - top.ts) / 1e3 // µs → ms
		}
	}
	out := map[string]float64{}
	for _, ph := range phaseNames {
		for _, m := range perPE {
			out[ph] = max(out[ph], m[ph])
		}
	}
	return out, nil
}
