package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"gpucmp/internal/compiler"
	"gpucmp/internal/sim"
)

// span is one timed call from the benchmark into a layer. Spans of one
// grid cell, submission or request share Req; Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and layer counters in memory until the run ends. A
// nil *tracer records nothing, which is how the untraced run calls the
// same code.
type tracer struct {
	epoch    time.Time
	mu       sync.Mutex
	spans    []span
	counters map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counters: map[string]float64{}}
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	return t.beginAt(name, parent, req, time.Now())
}

// beginAt opens a span that started at a given time, for a wait that
// began before the benchmark could observe it (an open-loop request's due
// time).
func (t *tracer) beginAt(name string, parent, req int, at time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: at.Sub(t.epoch).Nanoseconds()})
	return id
}

// end closes a span.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add accumulates a layer counter.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

// write stores the spans as JSON and returns the file's path.
func (t *tracer) write(path string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Overlapping children (concurrent calls under
// one parent) are counted once, and a child is clipped to its parent.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent > 0 {
			kids[s.Parent-1] = append(kids[s.Parent-1], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			if v.hi <= reach {
				continue
			}
			covered += v.hi - max(v.lo, reach)
			reach = v.hi
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanLayers maps each traced span name to the per-layer metrics it feeds:
// a count and the summed self time in seconds.
var spanLayers = map[string][2]string{
	"mem.device_setup":      {"mem.device_setups", "mem.device_setup_s"},
	"sim.launch":            {"sim.launches", "sim.launch_s"},
	"compiler.build":        {"compiler.builds", "compiler.build_s"},
	"runtime.alloc":         {"runtime.allocs", "runtime.alloc_s"},
	"runtime.h2d":           {"runtime.h2d_copies", "runtime.h2d_s"},
	"runtime.d2h":           {"runtime.d2h_copies", "runtime.d2h_s"},
	"bench.run":             {"bench.runs", "bench.host_self_s"},
	"perfmodel.kernel_time": {"perfmodel.evaluations", "perfmodel.kernel_time_s"},
	"submit.parse":          {"submit.parses", "submit.parse_s"},
	"submit.gauntlet":       {"submit.gauntlets", "submit.gauntlet_s"},
	"submit.run":            {"submit.runs", "submit.run_s"},
	"server.run":            {"server.run_calls", "server.run_s"},
	"server.coexec":         {"coexec.requests", "coexec.latency_s"},
}

// counterUnits lists the per-layer metrics that come from counters rather
// than span self times, with their units.
var counterUnits = map[string]string{
	"mem.device_setup_alloc_mib": "MiB",
	"sim.warp_instrs":            "count",
	"sim.lane_instrs":            "count",
	"sim.warp_instrs_per_s":      "1/s",
	"sim.superinstr_hit_ratio":   "ratio",
	"sim.block_compiles":         "count",
	"compiler.cache_hits":        "count",
	"compiler.cache_misses":      "count",
	"sched.cache_hit_ratio":      "ratio",
	"sched.dedup_shared":         "count",
	"sched.job_s":                "s",
	"sched.busy_ratio":           "ratio",
	"sched.queue_wait_s":         "s",
	"server.requests.run.2xx":    "count",
	"server.requests.run.4xx":    "count",
	"server.requests.run.5xx":    "count",
	"server.requests.coexec.2xx": "count",
	"server.requests.coexec.4xx": "count",
	"server.requests.coexec.5xx": "count",
	"server.hit_latency_p50_ms":  "ms",
	"server.response_bytes":      "bytes",
	"coexec.shards":              "count",
	"coexec.retries":             "count",
	"coexec.redistributions":     "count",
	"trace.spans":                "count",
	"trace.uncovered_ratio":      "ratio",
	"trace.overhead_ratio":       "ratio",
}

// rootSpans names the span each workload opens per op; the workload's
// coverage check runs over them.
var rootSpans = map[string]bool{"grid.cell": true, "kernels.submission": true, "serve.request": true}

// layerMetrics fills every per-layer metric from a traced phase: span
// counts and self times, the layer counters the workload and the process
// counters recorded, the share of root-span wall time no child covers,
// and the tracing overhead against the untraced phase. A metric whose
// layer the workload does not reach reads 0.
func layerMetrics(t *tracer, plain, traced *phase, out map[string]metric) error {
	for _, names := range spanLayers {
		out[names[0]] = metric{0, "count"}
		out[names[1]] = metric{0, "s"}
	}
	for name, unit := range counterUnits {
		out[name] = metric{t.counters[name], unit}
	}
	self := selfTimes(t.spans)
	var rootWall, rootSelf int64
	for i, s := range t.spans {
		if s.End == 0 {
			return fmt.Errorf("trace: span %s (id %d) never ended", s.Name, s.ID)
		}
		if rootSpans[s.Name] {
			rootWall += s.End - s.Start
			rootSelf += self[i]
		}
		names, ok := spanLayers[s.Name]
		if !ok {
			continue
		}
		c, d := out[names[0]], out[names[1]]
		c.Value++
		d.Value += float64(self[i]) / 1e9
		out[names[0]], out[names[1]] = c, d
	}
	if launch := out["sim.launch_s"].Value; launch > 0 {
		out["sim.warp_instrs_per_s"] = metric{out["sim.warp_instrs"].Value / launch, "1/s"}
	}
	out["trace.spans"] = metric{float64(len(t.spans)), "count"}
	if rootWall > 0 {
		u := float64(rootSelf) / float64(rootWall)
		out["trace.uncovered_ratio"] = metric{u, "ratio"}
		if u > maxUncovered {
			return fmt.Errorf("trace: child spans leave %.1f%% of root wall time uncovered (limit %.0f%%)", 100*u, 100*maxUncovered)
		}
	}
	p0 := percentile(sortedCopy(plain.lat), 0.5)
	p1 := percentile(sortedCopy(traced.lat), 0.5)
	out["trace.overhead_ratio"] = metric{p1/p0 - 1, "ratio"}
	return nil
}

// processCounters are the process-wide layer counters a traced phase
// reports as deltas.
type processCounters struct {
	engine       sim.EngineStats
	hits, misses uint64
}

func snapshotCounters() processCounters {
	h, m := compiler.CompileCacheStats()
	return processCounters{engine: sim.GlobalEngineStats(), hits: h, misses: m}
}

// addDeltas records the change since before: simulator work retired, how
// much of it ran in fused superinstructions, block compiles, and compile
// cache traffic.
func (after processCounters) addDeltas(before processCounters, t *tracer) {
	var warp, lane int64
	for e, n := range after.engine.WarpInstrs {
		warp += n - before.engine.WarpInstrs[e]
	}
	for e, n := range after.engine.LaneInstrs {
		lane += n - before.engine.LaneInstrs[e]
	}
	t.add("sim.warp_instrs", float64(warp))
	t.add("sim.lane_instrs", float64(lane))
	if warp > 0 {
		t.add("sim.superinstr_hit_ratio", float64(after.engine.SuperinstrOps-before.engine.SuperinstrOps)/float64(warp))
	}
	t.add("sim.block_compiles", float64(after.engine.BlockCompiles-before.engine.BlockCompiles))
	t.add("compiler.cache_hits", float64(after.hits-before.hits))
	t.add("compiler.cache_misses", float64(after.misses-before.misses))
}
