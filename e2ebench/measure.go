package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"time"
)

// phase is what one measured phase of a workload observed.
type phase struct {
	lat       []float64 // seconds per completed op
	attempted int
	failed    int
	wall      float64 // seconds from the phase's start to its last op's end
	alloc     uint64  // TotalAlloc delta over the phase
	heapMean  float64 // time-averaged bytes of live and unswept heap objects
	heapPeak  float64 // their sampled maximum
	extra     map[string]float64
}

// endToEnd derives the end-to-end metrics of an untraced phase.
//
// The heap is gated by its time average, not its peak. On serve the peak
// is set by how many 128 MiB device stores happen to be alive together
// and by GC pacing, and it jumped between values a device store apart
// from run to run; the average moves smoothly with both the heap's
// baseline and how long its peaks last. The peak is printed on the
// metadata line.
func (p *phase) endToEnd(setupS float64) map[string]metric {
	ops := float64(max(len(p.lat), 1))
	sorted := sortedCopy(p.lat)
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"ops_per_s":        {float64(len(p.lat)) / p.wall, "1/s"},
		"latency_p50_ms":   {1e3 * percentile(sorted, 0.5), "ms"},
		"latency_tail_ms":  {1e3 * tailPercentile(sorted).Value, "ms"},
		"alloc_mib_per_op": {float64(p.alloc) / ops / (1 << 20), "MiB"},
		"heap_mean_mib":    {p.heapMean / (1 << 20), "MiB"},
	}
}

// meter brackets a measured phase: wall clock, TotalAlloc and a heap
// sampler.
type meter struct {
	start   time.Time
	allocs0 uint64
	stop    chan struct{}
	wg      sync.WaitGroup
	heap    []float64 // sampled bytes
}

const heapObjects = "/memory/classes/heap/objects:bytes"

// heapSampleEvery is the heap sampling period: short next to the tens of
// milliseconds one 128 MiB device store lives.
const heapSampleEvery = time.Millisecond

func startMeter() *meter {
	m := &meter{stop: make(chan struct{})}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.allocs0 = ms.TotalAlloc
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		s := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			m.heap = append(m.heap, float64(s[0].Value.Uint64()))
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	m.start = time.Now()
	return m
}

// finish stops the sampler and fills the phase's wall time, allocation and
// heap figures.
func (m *meter) finish(p *phase) {
	p.wall = time.Since(m.start).Seconds()
	close(m.stop)
	m.wg.Wait()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.alloc = ms.TotalAlloc - m.allocs0
	p.heapMean = mean(m.heap)
	p.heapPeak = slices.Max(append(m.heap, 0))
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

// heapAllocs reads the cumulative heap allocation counter without stopping
// the world, for per-span allocation accounting.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the 1-based nearest-rank index of quantile q among n samples.
// The small epsilon keeps q*n that is an integer in exact arithmetic from
// rounding up a rank in floating point (0.9*1000 = 900.0000000000001).
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// percentile is the nearest-rank q-quantile of sorted samples; NaN when
// there are none.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(q, len(sorted))-1]
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// minBeyond is how many samples must lie above a tail percentile for it to
// be reported: fewer, and the percentile is one or two unlucky samples.
const minBeyond = 10

// tailPick is the reported tail percentile, with how many samples lie
// beyond it.
type tailPick struct {
	Label  string  `json:"percentile"`
	Value  float64 `json:"value_s"`
	Beyond int     `json:"samples_beyond"`
	N      int     `json:"samples"`
}

// tailPercentile picks the highest of p90, p99 and p99.9 that has at least
// minBeyond samples beyond it. With too few samples for any of them it
// reports p90 and its short count, which the printed meta line shows.
func tailPercentile(sorted []float64) tailPick {
	n := len(sorted)
	var pick tailPick
	for i, c := range []struct {
		label string
		q     float64
	}{{"p90", 0.9}, {"p99", 0.99}, {"p99.9", 0.999}} {
		beyond := 0
		if n > 0 {
			beyond = n - rank(c.q, n)
		}
		if i == 0 || beyond >= minBeyond {
			pick = tailPick{Label: c.label, Value: percentile(sorted, c.q), Beyond: beyond, N: n}
		}
	}
	return pick
}
