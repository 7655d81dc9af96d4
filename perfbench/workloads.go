package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"dss/internal/input"
	"dss/stringsort"
)

// workload is one named benchmark input: a generator, the machine shape and
// the Sort configuration. Only the generated strings reach the program.
type workload struct {
	name  string
	p     int
	perPE int                         // strings per PE at scale 1
	gen   func(perPE, p int) [][]byte // the whole string set
	cfg   stringsort.Config
}

var workloads = []workload{
	{
		// The paper's core algorithm on its central synthetic input: Step-1
		// radix sort, LCP-compressed Step-3 encode/decode and the eager LCP
		// loser-tree merge, all in RAM over the local transport.
		name: "dn-ms", p: 8, perPE: 50_000, gen: genDN,
		cfg: stringsort.Config{Algorithm: stringsort.MS},
	},
	{
		// The only workload that exercises dupdetect, golomb, the codec and
		// TCP: prefix doubling with Golomb-coded fingerprints over loopback
		// TCP, lcp codec, streaming Step-3/Step-4 seam.
		name: "cc-pdms-tcp", p: 2, perPE: 200_000, gen: genCC,
		cfg: stringsort.Config{
			Algorithm: stringsort.PDMSGolomb, Transport: stringsort.TransportTCP,
			Codec: "lcp", StreamingMerge: true,
		},
	},
	{
		// The only workload where spill works: a 1 MiB per-PE budget pages
		// run chunks out and drains Step 4 into sorted-run files.
		name: "dna-spill", p: 4, perPE: 100_000, gen: genDNA,
		cfg: stringsort.Config{
			Algorithm: stringsort.MS, MemBudget: 1 << 20, StreamingMerge: true,
		},
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// instanceSeed fixes each workload's string set, so its statistics (and
// with them the deterministic counters) do not move with --seed; the seed
// draws the random distribution of that set over the PEs.
const instanceSeed = 1

// genDN builds the D/N instance (ratio 0.5, length 100).
func genDN(perPE, p int) [][]byte {
	cfg := input.DNConfig{StringsPerPE: perPE, Length: 100, Ratio: 0.5}
	return input.Gather(func(pe int) [][]byte { return input.DN(cfg, pe, p) }, p)
}

func genCC(perPE, p int) [][]byte {
	cfg := input.CCConfig{LinesPerPE: perPE, Seed: instanceSeed}
	return input.Gather(func(pe int) [][]byte { return input.CommonCrawlLike(cfg, pe, p) }, p)
}

func genDNA(perPE, p int) [][]byte {
	cfg := input.DNAConfig{ReadsPerPE: perPE, Seed: instanceSeed}
	return input.Gather(func(pe int) [][]byte { return input.DNAReads(cfg, pe, p) }, p)
}

// deal shuffles the string set with the seed and hands every PE an equal
// share, packed into one arena in its local order — the layout of a
// fragment read from a file. (The generators' own PE assignment would give
// the D/N instance's PEs already sorted fragments.)
func deal(all [][]byte, seed int64, p int) [][][]byte {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	out := make([][][]byte, p)
	for pe := range out {
		lo, hi := pe*len(all)/p, (pe+1)*len(all)/p
		out[pe] = make([][]byte, hi-lo)
		n := 0
		for _, s := range all[lo:hi] {
			n += len(s)
		}
		arena := make([]byte, 0, n)
		for i, s := range all[lo:hi] {
			arena = append(arena, s...)
			out[pe][i] = arena[len(arena)-len(s) : len(arena) : len(arena)]
		}
	}
	return out
}

// instance is one generated input together with its reference order.
type instance struct {
	inputs [][][]byte
	ref    [][]byte // every input string, sorted by bytes.Compare
	n      int
	bytes  int64
}

func newInstance(w workload, seed int64, scale float64) *instance {
	perPE := max(1, int(float64(w.perPE)*scale))
	in := &instance{inputs: deal(w.gen(perPE, w.p), seed, w.p)}
	for _, ss := range in.inputs {
		in.ref = append(in.ref, ss...)
		for _, s := range ss {
			in.bytes += int64(len(s))
		}
	}
	in.n = len(in.ref)
	// The oracle sorts with the standard library, independent of the
	// program's own sorters.
	slices.SortFunc(in.ref, bytes.Compare)
	return in
}

// sortConfig is the workload's Config for one run of this instance.
func sortConfig(w workload, seed int64, workDir string) stringsort.Config {
	cfg := w.cfg
	cfg.P = w.p
	cfg.Seed = uint64(seed)
	if cfg.MemBudget > 0 {
		cfg.SpillDir = workDir
	}
	return cfg
}

// oracle walks a sort's output in global order and compares it with the
// reference: every item must equal the next reference string (after origin
// resolution for PDMS prefixes) and carry a correct LCP.
type oracle struct {
	in     *instance
	prefix bool
	i      int
	prev   []byte
	first  bool
}

// fragment starts a new PE fragment: LCPs restart at 0.
func (o *oracle) fragment() { o.first = true }

func (o *oracle) item(s []byte, lcp int32, hasLCP bool, org stringsort.Origin) error {
	if o.i >= o.in.n {
		return fmt.Errorf("more than %d output strings", o.in.n)
	}
	full := s
	if o.prefix {
		if org.PE < 0 || org.PE >= len(o.in.inputs) || org.Index < 0 || org.Index >= len(o.in.inputs[org.PE]) {
			return fmt.Errorf("output %d: origin %+v out of range", o.i, org)
		}
		full = o.in.inputs[org.PE][org.Index]
		if !bytes.HasPrefix(full, s) {
			return fmt.Errorf("output %d: %q is not a prefix of its origin %+v", o.i, s, org)
		}
	}
	if !bytes.Equal(full, o.in.ref[o.i]) {
		return fmt.Errorf("output %d differs from the reference", o.i)
	}
	if hasLCP {
		want := int32(0)
		if !o.first {
			want = int32(commonPrefix(o.prev, s))
		}
		if lcp != want {
			return fmt.Errorf("output %d: LCP %d, want %d", o.i, lcp, want)
		}
	}
	o.prev = append(o.prev[:0], s...)
	o.first = false
	o.i++
	return nil
}

func (o *oracle) finish() error {
	if o.i != o.in.n {
		return fmt.Errorf("%d output strings, want %d", o.i, o.in.n)
	}
	return nil
}

func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// check verifies a Sort result against the reference. Budget-mode run files
// are streamed through stringsort.OpenRun and their directory removed.
func (in *instance) check(res *stringsort.Result) error {
	o := &oracle{in: in, prefix: res.PrefixOnly}
	if len(res.PEs) > 0 && res.PEs[0].RunFile != "" {
		defer os.RemoveAll(filepath.Dir(res.PEs[0].RunFile))
		for _, pe := range res.PEs {
			if err := o.runFile(pe.RunFile); err != nil {
				return err
			}
		}
		return o.finish()
	}
	for _, pe := range res.PEs {
		o.fragment()
		if pe.LCPs != nil && len(pe.LCPs) != len(pe.Strings) {
			return fmt.Errorf("%d LCPs for %d strings", len(pe.LCPs), len(pe.Strings))
		}
		if o.prefix && len(pe.Origins) != len(pe.Strings) {
			return fmt.Errorf("%d origins for %d prefixes", len(pe.Origins), len(pe.Strings))
		}
		for k, s := range pe.Strings {
			var lcp int32
			if pe.LCPs != nil {
				lcp = pe.LCPs[k]
			}
			var org stringsort.Origin
			if o.prefix {
				org = pe.Origins[k]
			}
			if err := o.item(s, lcp, pe.LCPs != nil, org); err != nil {
				return err
			}
		}
	}
	return o.finish()
}

func (o *oracle) runFile(path string) error {
	rf, err := stringsort.OpenRun(path)
	if err != nil {
		return err
	}
	defer rf.Close()
	o.fragment()
	for {
		s, lcp, org, ok, err := rf.Next()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if !ok {
			return nil
		}
		if err := o.item(s, lcp, rf.HasLCP(), org); err != nil {
			return err
		}
	}
}

// timedSort runs one Sort and returns its result and wall time.
func timedSort(in *instance, cfg stringsort.Config) (*stringsort.Result, time.Duration, error) {
	t0 := time.Now()
	res, err := stringsort.Sort(in.inputs, cfg)
	return res, time.Since(t0), err
}
