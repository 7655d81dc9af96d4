package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// meta records where and on what a result was measured. Results whose
// HostID differs were taken on different hosts and are not comparable.
type meta struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Trace        int     `json:"trace"`
	Seconds      float64 `json:"seconds"`
	P            int     `json:"p"`
	Strings      int     `json:"strings"`
	InputBytes   int64   `json:"input_bytes"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	CPUModel     string  `json:"cpu_model"`
	GoVersion    string  `json:"go_version"`
	Revision     string  `json:"git_revision"`
	SourceDigest string  `json:"source_digest"`
	HostID       string  `json:"host_id"`
}

func hostMeta(w workload, seed int64, in *instance) meta {
	m := meta{
		Workload:     w.name,
		Seed:         seed,
		P:            w.p,
		Strings:      in.n,
		InputBytes:   in.bytes,
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		Revision:     gitRevision(),
		SourceDigest: sourceDigest(),
	}
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|%d|%d|%s", m.CPUModel, m.NProc, m.GOMAXPROCS, m.GoVersion)))
	m.HostID = hex.EncodeToString(h[:6])
	return m
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRevision resolves HEAD when the benchmark runs from a git checkout,
// and reports "unknown" otherwise (the source digest still identifies the
// code).
func gitRevision() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
				return rev
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under the current
// directory, skipping hidden directories (VCS data, build output).
func sourceDigest() string {
	h := sha256.New()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// median returns the median of vs (0 for none).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailPercentile returns the highest order statistic with at least ten
// samples above it, and the percentile it stands for. Below minSamples
// samples there is none, and the maximum is returned as percentile 100.
func tailPercentile(vs []float64) (float64, int) {
	if len(vs) == 0 {
		return 0, 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s) < minSamples {
		return s[len(s)-1], 100
	}
	k := len(s) - minSamples
	return s[k], 100 * (k + 1) / len(s)
}
