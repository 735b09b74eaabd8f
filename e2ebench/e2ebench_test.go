package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/core"
	"gpucmp/internal/fuzz"
	"gpucmp/internal/sched"
	"gpucmp/internal/submit"
)

var update = flag.Bool("update", false, "rewrite grid_digests.txt from a fresh grid pass")

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		label  string
		value  float64
		beyond int
	}{
		{50, "p90", 45, 5},         // too few for any: p90 with its short count
		{100, "p90", 90, 10},       // p90 just qualifies
		{999, "p90", 900, 99},      // p99 leaves 9 beyond
		{1000, "p99", 990, 10},     // p99 just qualifies
		{9999, "p99", 9900, 99},    // p99.9 leaves 9 beyond
		{10000, "p99.9", 9990, 10}, // p99.9 just qualifies
	} {
		got := tailPercentile(seq(c.n))
		if got.Label != c.label || got.Value != c.value || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d: got %+v, want %s=%v with %d beyond", c.n, got, c.label, c.value, c.beyond)
		}
	}
	if got := tailPercentile(nil); got.Label != "p90" || got.N != 0 {
		t.Errorf("empty: got %+v", got)
	}
}

func TestExpectedStatusTable(t *testing.T) {
	want := map[string]string{
		"RdxS|" + arch.HD5870().Name:   "FL",
		"RdxS|" + arch.Intel920().Name: "FL",
		"FFT|" + arch.CellBE().Name:    "ABT",
		"DXTC|" + arch.CellBE().Name:   "ABT",
		"RdxS|" + arch.CellBE().Name:   "ABT",
		"STNW|" + arch.CellBE().Name:   "ABT",
	}
	jobs := sched.GridJobs(gridScale)
	if len(jobs) != 112 {
		t.Fatalf("grid has %d cells, want 112", len(jobs))
	}
	notOK := 0
	for _, j := range jobs {
		got := expectedStatus(j.Benchmark, j.Device)
		w, ok := want[j.Benchmark+"|"+j.Device]
		if !ok {
			w = "OK"
		}
		if got != w {
			t.Errorf("%s on %s: %s, want %s", j.Benchmark, j.Device, got, w)
		}
		if got != "OK" {
			notOK++
		}
	}
	if notOK != len(want) {
		t.Errorf("%d non-OK cells, want %d", notOK, len(want))
	}
}

// TestServeColdPool checks that the benchmark's 25 s run fits the cold
// pool at the configured shares, with every /coexec split distinct, and
// that a longer run is refused rather than given fewer or different misses.
func TestServeColdPool(t *testing.T) {
	_, reqs, err := serveInputs(3, 25)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	splits := map[coexecBody]bool{}
	for _, q := range reqs {
		counts[q.kind]++
		if q.kind == kindCoexec {
			if splits[q.coexec] {
				t.Errorf("/coexec split %+v sent twice", q.coexec)
			}
			splits[q.coexec] = true
		}
		if q.kind == kindCold && q.job.Config.Scale != coldScale {
			t.Errorf("cold job %s is not at scale %d", q.job.Key(), coldScale)
		}
	}
	n := len(reqs)
	if counts[kindCold] != int(coldShare*float64(n)+0.5) || counts[kindCoexec] != int(coexecShare*float64(n)+0.5) {
		t.Errorf("%d requests: %d cold, %d coexec; shares %.4f and %.2f", n, counts[kindCold], counts[kindCoexec], coldShare, coexecShare)
	}
	if _, _, err := serveInputs(3, 40); err == nil {
		t.Error("a 40 s run needs more cold jobs than the pool holds but was accepted")
	}
}

func TestServeInputsPerSeed(t *testing.T) {
	hot1, reqs1, err := serveInputs(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	hot2, reqs2, err := serveInputs(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hot1, hot2) || !reflect.DeepEqual(reqs1, reqs2) {
		t.Fatal("the same seed made different request lists")
	}
	if len(reqs1) != int(serveRate*5) {
		t.Errorf("%d requests, want %d", len(reqs1), int(serveRate*5))
	}
	cold := func(reqs []serveReq) map[string]bool {
		out := map[string]bool{}
		for _, q := range reqs {
			if q.kind == kindCold {
				if out[q.job.Key()] {
					t.Errorf("cold job %s drawn twice", q.job.Key())
				}
				out[q.job.Key()] = true
			}
		}
		return out
	}
	c1 := cold(reqs1)
	hotKeys := map[string]bool{}
	for _, j := range hot1 {
		hotKeys[j.Key()] = true
	}
	for k := range c1 {
		if hotKeys[k] {
			t.Errorf("cold job %s is in the hot set", k)
		}
	}
	_, reqs3, err := serveInputs(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(c1, cold(reqs3)) {
		t.Error("seeds 7 and 8 drew the same cold set")
	}
	for i := 1; i < len(reqs1); i++ {
		if reqs1[i].at < reqs1[i-1].at {
			t.Fatalf("request %d is due before request %d", i, i-1)
		}
	}
}

// TestReplayMatchesSubmitRun checks that the traced kernels path, which
// replays submit.Run's calls to time each layer, reports the same runs as
// submit.Run. Seed 21<<20+107 exceeds the Cell/BE local store: skipped.
func TestReplayMatchesSubmitRun(t *testing.T) {
	lim := submit.DefaultLimits()
	for _, seed := range []uint64{kernelSeed(21, 107), kernelSeed(1, 0), kernelSeed(1, 1)} {
		body, err := fuzz.Encode(fuzz.Generate(seed, fuzz.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		s, err := submit.Parse(body, lim)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := submit.Run(context.Background(), s, lim)
		if err != nil {
			t.Fatal(err)
		}
		got, err := replayRun(newTracer(), 0, 0, s, lim)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(rep.Runs) {
			t.Fatalf("seed %d: %d replayed runs, want %d", seed, len(got), len(rep.Runs))
		}
		for i, want := range rep.Runs {
			g := got[i]
			if g.Device != want.Device || g.Toolchain != want.Toolchain || g.Status != want.Status || g.OutChecksum != want.OutChecksum {
				t.Errorf("seed %d run %d: replay %s/%s %s %s, submit.Run %s/%s %s %s", seed, i,
					g.Toolchain, g.Device, g.Status, g.OutChecksum, want.Toolchain, want.Device, want.Status, want.OutChecksum)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: 10..50 covered once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the root's end
		{ID: 5, Parent: 2, Name: "a.child", Start: 12, End: 18},
		{ID: 6, Name: "other", Start: 0, End: 5},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6, 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestLayerMetricsCoverage(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "grid.cell", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "mem.device_setup", Start: 0, End: 30},
		{ID: 3, Parent: 1, Name: "bench.run", Start: 30, End: 99},
		{ID: 4, Parent: 3, Name: "sim.launch", Start: 40, End: 90},
	}
	plain := &phase{lat: []float64{1, 2, 3}}
	traced := &phase{lat: []float64{1.1, 2.2, 3.3}}
	out := map[string]metric{}
	if err := layerMetrics(tr, plain, traced, out); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"mem.device_setups": 1, "mem.device_setup_s": 30e-9, "bench.host_self_s": 19e-9,
		"sim.launch_s": 50e-9, "trace.uncovered_ratio": 0.01, "submit.run_s": 0,
	} {
		if got := out[name].Value; fmt.Sprintf("%.6g", got) != fmt.Sprintf("%.6g", want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := out["trace.overhead_ratio"].Value; got < 0.0999 || got > 0.1001 {
		t.Errorf("overhead %v, want 0.1", got)
	}
	tr.spans[0].End = 200 // half the cell outside any child span
	if err := layerMetrics(tr, plain, traced, out); err == nil {
		t.Error("a root span half uncovered passed the coverage check")
	}
}

// TestGridDigests runs the measured grid once and compares every cell with
// the digests recorded in grid_digests.txt; -update rewrites the file.
func TestGridDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole grid")
	}
	want := parseDigests(gridDigestFile)
	var lines []string
	for _, j := range sched.GridJobs(gridScale) {
		spec, err := bench.SpecByName(j.Benchmark)
		if err != nil {
			t.Fatal(err)
		}
		a, err := arch.Resolve(j.Device)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.Direct(a, j.Toolchain, spec, j.Config)
		if err != nil {
			t.Fatalf("%s: %v", j.Key(), err)
		}
		got := cellDigest(r)
		lines = append(lines, j.Key()+"\t"+got)
		if !*update && want[j.Key()] != got {
			t.Errorf("%s: digest %s, recorded %s", j.Key(), got, want[j.Key()])
		}
	}
	if *update {
		if err := os.WriteFile("grid_digests.txt", []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResultEncodesWithoutSamples checks that a phase with no successful
// op of some kind, whose percentiles are NaN, still prints its result.
func TestResultEncodesWithoutSamples(t *testing.T) {
	m := &meta{Tail: tailPercentile(nil), Extra: map[string]float64{"serve.hot_p50_ms": percentile(nil, 0.5)}}
	m.clean()
	if _, err := json.Marshal(m); err != nil {
		t.Fatalf("metadata line: %v", err)
	}
	if v := finite(math.Inf(1)); v != 0 {
		t.Errorf("finite(+Inf) = %v, want 0", v)
	}
}
