// Command e2ebench is the repository's end-to-end benchmark. One run sets
// up one workload from a seed, measures it for a fixed time, checks every
// output it produced and prints each metric by name with its unit. The
// last line of standard output is the result object
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// holding the end-to-end metrics (-trace 0) or the per-layer metrics of a
// traced run (-trace 1). The line before it holds the host metadata and
// the workload's op count and rate. See README.md for the metrics, the
// workloads and how to rerun a held-out seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets its workload up from scratch;
// setup_s is the median, which keeps one slow set-up from moving it.
const setupRepeats = 3

// maxUncovered is the largest share of a traced root span's wall time its
// child spans may leave unaccounted for before the traced run is refused.
const maxUncovered = 0.05

// maxListed caps the mismatches printed; the rest are counted.
const maxListed = 20

// workload is one benchmark traffic mix.
type workload interface {
	// setUp builds, from scratch, everything the measured phases need:
	// inputs from the seed, warm caches, servers. It releases whatever an
	// earlier setUp built.
	setUp(seed uint64, seconds float64) error
	// measure runs the workload's ops for d. A nil tracer is the untraced
	// run; its outputs are the ones verify checks.
	measure(d time.Duration, t *tracer) (*phase, error)
	// verify checks every output the untraced phases produced and returns
	// one line per mismatch.
	verify() []string
	// close releases everything setUp built.
	close()
}

var workloads = map[string]func() workload{
	"grid":    func() workload { return &gridWorkload{} },
	"kernels": func() workload { return &kernelsWorkload{} },
	"serve":   func() workload { return &serveWorkload{} },
}

// metric is one named number in the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// meta is printed on the line before the result: what ran, where, and how
// the tail percentile and the tracing overhead came out.
type meta struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Traced     bool               `json:"traced"`
	Host       hostInfo           `json:"host"`
	Ops        int                `json:"ops"`
	OpsPerS    float64            `json:"ops_per_s"`
	Tail       tailPick           `json:"latency_tail"`
	PeakHeap   float64            `json:"peak_heap_mib"`
	FailedFrac float64            `json:"failed_ratio"`
	Extra      map[string]float64 `json:"extra,omitempty"`
	Mismatches []string           `json:"mismatches,omitempty"`
	SpansFile  string             `json:"spans_file,omitempty"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: grid, kernels or serve")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	spans := flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: e2ebench -workload grid|kernels|serve -seed N -seconds S -trace 0|1\n")
		os.Exit(2)
	}
	m, res, err := run(mk(), *name, *seed, *seconds, *trace == 1, *spans)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	for _, line := range m.Mismatches {
		fmt.Fprintf(os.Stderr, "MISMATCH %s\n", line)
	}
	m.clean()
	for k, v := range res.Metrics {
		res.Metrics[k] = metric{finite(v.Value), v.Unit}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(m); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
}

// finite maps NaN and the infinities, which JSON cannot carry, to 0. They
// arise when a phase has no successful op of some kind, which the output
// check already reports as incorrect; the result line must still print.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// clean makes every number on the metadata line encodable.
func (m *meta) clean() {
	m.OpsPerS, m.PeakHeap, m.FailedFrac = finite(m.OpsPerS), finite(m.PeakHeap), finite(m.FailedFrac)
	m.Tail.Value = finite(m.Tail.Value)
	for k, v := range m.Extra {
		m.Extra[k] = finite(v)
	}
}

// run performs one benchmark run: set-up several times, then one untraced
// measured phase (-trace 0), or an untraced and a traced half (-trace 1).
func run(w workload, name string, seed uint64, seconds float64, traced bool, spansDir string) (*meta, *result, error) {
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := w.setUp(seed, seconds); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	d := time.Duration(seconds * float64(time.Second))
	if traced {
		d /= 2
	}
	plain, err := w.measure(d, nil)
	if err != nil {
		return nil, nil, err
	}
	m := &meta{Workload: name, Seed: seed, Traced: traced, Host: host(), Extra: plain.extra}
	res := &result{Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metric{}}

	if !traced {
		for k, v := range plain.endToEnd(median(setups)) {
			res.Metrics[k] = v
		}
	} else {
		t := newTracer()
		before := snapshotCounters()
		tp, err := w.measure(d, t)
		if err != nil {
			return nil, nil, err
		}
		snapshotCounters().addDeltas(before, t)
		res.Attempted += tp.attempted
		res.Failed += tp.failed
		if err := layerMetrics(t, plain, tp, res.Metrics); err != nil {
			return nil, nil, err
		}
		m.Extra = tp.extra
		m.Extra["trace.untraced_p50_ms"] = 1e3 * percentile(sortedCopy(plain.lat), 0.5)
		if m.SpansFile, err = t.write(filepath.Join(spansDir, fmt.Sprintf("%s-%d.json", name, seed))); err != nil {
			return nil, nil, err
		}
	}
	m.Ops = len(plain.lat)
	m.OpsPerS = float64(len(plain.lat)) / plain.wall
	m.Tail = tailPercentile(sortedCopy(plain.lat))
	m.PeakHeap = plain.heapPeak / (1 << 20)
	m.FailedFrac = float64(res.Failed) / float64(max(res.Attempted, 1))
	bad := w.verify()
	res.Correct = len(bad) == 0 && res.Attempted > 0
	if len(bad) > maxListed {
		bad = append(bad[:maxListed], fmt.Sprintf("... and %d more", len(bad)-maxListed))
	}
	m.Mismatches = bad
	return m, res, nil
}

// host records where the run happened.
func host() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// sortedNames returns a map's keys in order, for stable output.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
