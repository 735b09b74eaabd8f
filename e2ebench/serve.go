package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/coexec"
	"gpucmp/internal/compiler"
	"gpucmp/internal/core"
	"gpucmp/internal/sched"
	"gpucmp/internal/server"
)

// The serve traffic mix follows cmd/loadgen's, which gives 55% of its
// requests to cache-hot /run repeats and 20% to /run sweeps over distinct
// keys. /coexec takes the share loadgen gives its smallest part (5%, hostile
// /kernels); the rest is /run, split hot to cold 55:20 as in loadgen.
const (
	coexecShare = 0.05                        // distinct /coexec splits
	coldShare   = (1 - coexecShare) * 20 / 75 // /run jobs never seen before: real misses
)

// serveRate is the open-loop request rate: the highest whole rate at which
// a run of the benchmark's 25 s draws no more cold jobs than the coldScale
// grid holds (17 × 25 × 0.2533 = 108 of 112). Measured on a 2-vCPU host,
// the workers are then busy about a tenth of the time (sched.busy_ratio),
// well under half, so latency reflects service time rather than a queue.
const serveRate = 17.0

// The /run problem sizes: small enough that a miss stays interactive, as
// on the /figures path. The hot set is the whole grid at hotScale, warmed
// in set-up; cold jobs come from the grid at coldScale.
const (
	hotScale  = 16
	coldScale = 32
)

// coexecDevices are the devices /coexec splits draw from. The Cell/BE is
// left out: its local store cannot hold every split workload.
func coexecDevices() []*arch.Device {
	return []*arch.Device{arch.GTX480(), arch.GTX280(), arch.HD5870(), arch.Intel920()}
}

const (
	kindHot = iota
	kindCold
	kindCoexec
)

// coexecBody is one /coexec split. It is comparable, so distinct splits
// can be drawn through a set.
type coexecBody struct {
	Workload        string
	Size            int
	Devices         [2]string
	ShardsPerDevice int
}

// wire is the POST /coexec body.
func (b coexecBody) wire() any {
	return struct {
		Workload        string   `json:"workload"`
		Size            int      `json:"size"`
		Devices         []string `json:"devices"`
		ShardsPerDevice int      `json:"shards_per_device"`
	}{b.Workload, b.Size, b.Devices[:], b.ShardsPerDevice}
}

// serveReq is one scheduled request.
type serveReq struct {
	at     time.Duration // due time from the start of the schedule
	kind   int
	job    sched.Job // /run requests
	coexec coexecBody
	path   string
	body   []byte
}

// serveInputs makes the whole request schedule from the seed: n = rate ×
// seconds Poisson arrivals (uniform order statistics, so the count is
// exact), in a seeded order of kinds with fixed shares: cold /run jobs
// drawn without replacement, distinct /coexec splits, and repeats of the
// hot set. The hot set is the whole hotScale grid, repeated a seeded
// round at a time, so every seed repeats the same mix of result sizes.
// Cold jobs are drawn a round at a time, one per benchmark, and /coexec
// splits in balanced rounds, so seeds change which jobs run but not how
// much work they are. A run too long for the cold pool is refused rather
// than given fewer or heavier misses.
func serveInputs(seed uint64, seconds float64) (hot []sched.Job, reqs []serveReq, err error) {
	r := rand.New(rand.NewPCG(seed, 0x5e77e))
	hot = sched.GridJobs(hotScale)
	pool := coldPool(r)

	n := int(serveRate * seconds)
	kinds := make([]int, n)
	nCold := int(coldShare*float64(n) + 0.5)
	nCoexec := int(coexecShare*float64(n) + 0.5)
	if nCold > len(pool) {
		return nil, nil, fmt.Errorf("serve: %g s at %g req/s needs %d cold jobs, the scale-%d grid holds %d",
			seconds, serveRate, nCold, coldScale, len(pool))
	}
	for i := range kinds {
		switch {
		case i < nCold:
			kinds[i] = kindCold
		case i < nCold+nCoexec:
			kinds[i] = kindCoexec
		}
	}
	r.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	ats := make([]float64, n)
	for i := range ats {
		ats[i] = r.Float64() * seconds
	}
	sort.Float64s(ats)
	splits := coexecSplits(r)
	if nCoexec > len(splits) {
		return nil, nil, fmt.Errorf("serve: %g s at %g req/s needs %d /coexec splits, there are %d",
			seconds, serveRate, nCoexec, len(splits))
	}
	var hotOrder []int
	for i, at := range ats {
		q := serveReq{at: time.Duration(at * float64(time.Second)), kind: kinds[i], path: "/run"}
		switch q.kind {
		case kindCold:
			q.job, pool = pool[0], pool[1:]
		case kindCoexec:
			q.path = "/coexec"
			q.coexec, splits = splits[0], splits[1:]
		default:
			if len(hotOrder) == 0 {
				hotOrder = r.Perm(len(hot))
			}
			q.job, hotOrder = hot[hotOrder[0]], hotOrder[1:]
		}
		if q.kind == kindCoexec {
			q.body, err = json.Marshal(q.coexec.wire())
		} else {
			q.body, err = json.Marshal(q.job)
		}
		if err != nil {
			return nil, nil, err
		}
		reqs = append(reqs, q)
	}
	return hot, reqs, nil
}

// coldPool orders the coldScale grid in rounds: each round holds one job
// of every benchmark, and the seed shuffles jobs within a benchmark and
// benchmarks within a round.
func coldPool(r *rand.Rand) []sched.Job {
	grid := sched.GridJobs(coldScale)
	r.Shuffle(len(grid), func(i, j int) { grid[i], grid[j] = grid[j], grid[i] })
	byBench := map[string][]sched.Job{}
	for _, j := range grid {
		byBench[j.Benchmark] = append(byBench[j.Benchmark], j)
	}
	var queues [][]sched.Job
	for _, name := range sortedNames(byBench) {
		queues = append(queues, byBench[name])
	}
	var pool []sched.Job
	for round := 0; len(pool) < len(grid); round++ {
		r.Shuffle(len(queues), func(i, j int) { queues[i], queues[j] = queues[j], queues[i] })
		for _, q := range queues {
			pool = append(pool, q[round])
		}
	}
	return pool
}

// coexecSize is each /coexec workload's problem size: one split takes
// tens of milliseconds.
var coexecSize = map[string]int{"vecadd": 320, "sobel": 88, "mxm": 48}

// coexecSplits orders every distinct /coexec split: workloads in turn,
// device pairs a round at a time, then more shards per device. Any 18
// consecutive splits from the start pair each workload with each device
// pair once, so seeds change the order but not how much work the splits
// are.
func coexecSplits(r *rand.Rand) []coexecBody {
	workloads := coexec.NamedWorkloads()
	r.Shuffle(len(workloads), func(i, j int) { workloads[i], workloads[j] = workloads[j], workloads[i] })
	devs := coexecDevices()
	var pairs [][2]string
	for i := range devs {
		for j := i + 1; j < len(devs); j++ {
			pairs = append(pairs, [2]string{devs[i].Name, devs[j].Name})
		}
	}
	r.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	var out []coexecBody
	for shards := 2; shards <= 4; shards++ {
		for _, pair := range pairs {
			for _, w := range workloads {
				out = append(out, coexecBody{Workload: w, Size: coexecSize[w], Devices: pair, ShardsPerDevice: shards})
			}
		}
	}
	return out
}

// served is what the client saw of one request.
type served struct {
	ok       bool
	status   int
	cache    string
	bytes    int
	lateness time.Duration // sent minus due
	rtt      time.Duration // sent to body read
	total    time.Duration // due to body read
	digest   string        // /run: SHA-256 of the result; /coexec: output checksum
	report   struct{ Shards, Retries, Redistributions int }
}

// serveWorkload is an in-process gpucmpd — server.New over sched.New
// with one worker per CPU — behind a loopback listener, fed by an
// open-loop Poisson schedule from at most nproc client goroutines.
type serveWorkload struct {
	reqs   []serveReq
	hot    []sched.Job
	next   int           // first request not yet sent
	offset time.Duration // schedule time the next phase starts at

	sched  *sched.Scheduler
	hs     *http.Server
	served sync.WaitGroup // the Serve goroutine
	client *http.Client
	url    string

	checked []int // untraced request indices, checked by verify
	got     []served
	bad     []string
}

func (s *serveWorkload) setUp(seed uint64, seconds float64) error {
	s.close()
	compiler.ResetCompileCache()
	var err error
	s.hot, s.reqs, err = serveInputs(seed, seconds)
	if err != nil {
		return err
	}
	s.next, s.offset, s.checked, s.bad = 0, 0, nil, nil
	s.got = make([]served, len(s.reqs))

	nproc := runtime.NumCPU()
	s.sched = sched.New(sched.Options{Workers: nproc})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("serve: listen: %w", err)
	}
	s.hs = &http.Server{Handler: server.New(s.sched).Handler()}
	s.served.Add(1)
	go func() {
		defer s.served.Done()
		s.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed after close
	}()
	s.url = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true,
	}}

	// Warm the hot set with nproc concurrent callers.
	var wg sync.WaitGroup
	var next atomic.Int64
	errs := make([]error, nproc)
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(s.hot); i = int(next.Add(1) - 1) {
				body, _ := json.Marshal(s.hot[i]) // a Job always marshals
				if res := s.send("/run", body); !res.ok && errs[c] == nil {
					errs[c] = fmt.Errorf("serve: warm %s: status %d", s.hot[i].Key(), res.status)
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// send posts one body and records what came back.
func (s *serveWorkload) send(path string, body []byte) served {
	var out served
	resp, err := s.client.Post(s.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	out.status, out.cache, out.bytes = resp.StatusCode, resp.Header.Get("X-Cache"), len(b)
	if err != nil || resp.StatusCode != http.StatusOK {
		return out
	}
	out.ok = true
	return digest(path, b, out)
}

// digest extracts the part of a 200 reply that verify checks.
func digest(path string, b []byte, out served) served {
	if path == "/run" {
		var reply struct {
			Result json.RawMessage `json:"result"`
		}
		var compact bytes.Buffer
		if json.Unmarshal(b, &reply) != nil || json.Compact(&compact, reply.Result) != nil {
			out.ok = false
			return out
		}
		sum := sha256.Sum256(compact.Bytes())
		out.digest = hex.EncodeToString(sum[:])
		return out
	}
	var reply struct {
		Report struct {
			Shards, Retries, Redistributions int
		} `json:"report"`
		OutputChecksum string `json:"output_checksum"`
	}
	if json.Unmarshal(b, &reply) != nil {
		out.ok = false
		return out
	}
	out.digest = reply.OutputChecksum
	out.report = reply.Report
	return out
}

// measure sends the requests due in the next d of the schedule, each from
// its due time, and waits for their replies.
func (s *serveWorkload) measure(d time.Duration, t *tracer) (*phase, error) {
	p := &phase{extra: map[string]float64{}}
	lo := s.next
	for s.next < len(s.reqs) && s.reqs[s.next].at < s.offset+d {
		s.next++
	}
	window, base := s.reqs[lo:s.next], s.offset
	s.offset += d
	var before sched.Snapshot
	if t != nil {
		before = s.sched.Metrics().Snapshot()
	}

	m := startMeter()
	var wg sync.WaitGroup
	var next atomic.Int64
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1) - 1); j < len(window); j = int(next.Add(1) - 1) {
				q := window[j]
				due := m.start.Add(q.at - base)
				root := t.beginAt("serve.request", 0, lo+j, due)
				wait := t.beginAt("serve.generator_wait", root, lo+j, due)
				time.Sleep(time.Until(due))
				sent := time.Now()
				t.end(wait)
				call := t.begin("server."+q.path[1:], root, lo+j)
				res := s.send(q.path, q.body)
				t.end(call)
				t.end(root)
				done := time.Now()
				res.lateness, res.rtt, res.total = sent.Sub(due), done.Sub(sent), done.Sub(due)
				s.got[lo+j] = res
			}
		}()
	}
	wg.Wait()
	m.finish(p)

	var late []float64
	byKind := map[int][]float64{}
	for j := range window {
		i := lo + j
		res := s.got[i]
		p.attempted++
		late = append(late, res.lateness.Seconds())
		if !res.ok {
			p.failed++
			s.bad = append(s.bad, fmt.Sprintf("serve request %d %s: status %d", i, window[j].path, res.status))
			continue
		}
		p.lat = append(p.lat, res.total.Seconds())
		byKind[window[j].kind] = append(byKind[window[j].kind], res.total.Seconds())
		if t == nil {
			s.checked = append(s.checked, i)
		}
	}
	sort.Float64s(late)
	p.extra["serve.rate_per_s"] = serveRate
	for kind, name := range []string{"hot", "cold", "coexec"} {
		p.extra["serve."+name+"_requests"] = float64(len(byKind[kind]))
		p.extra["serve."+name+"_p50_ms"] = 1e3 * percentile(sortedCopy(byKind[kind]), 0.5)
	}
	p.extra["serve.generator_late_p50_ms"] = 1e3 * percentile(late, 0.5)
	p.extra["serve.generator_late_p90_ms"] = 1e3 * percentile(late, 0.9)
	p.extra["serve.generator_late_max_ms"] = 1e3 * percentile(late, 1)
	if t != nil {
		s.layerCounters(t, window, lo, p.wall, before, s.sched.Metrics().Snapshot())
	}
	return p, nil
}

// layerCounters records the scheduler, server and coexec counters of a
// traced phase that took wall seconds.
func (s *serveWorkload) layerCounters(t *tracer, window []serveReq, lo int, wall float64, before, after sched.Snapshot) {
	var runOK, hits int
	var hitLat []float64
	var missRTT float64
	for j, q := range window {
		res := s.got[lo+j]
		ep := q.path[1:]
		t.add(fmt.Sprintf("server.requests.%s.%dxx", ep, res.status/100), 1)
		t.add("server.response_bytes", float64(res.bytes))
		if !res.ok {
			continue
		}
		if q.path == "/coexec" {
			t.add("coexec.shards", float64(res.report.Shards))
			t.add("coexec.retries", float64(res.report.Retries))
			t.add("coexec.redistributions", float64(res.report.Redistributions))
			continue
		}
		runOK++
		switch res.cache {
		case "hit":
			hits++
			hitLat = append(hitLat, res.rtt.Seconds())
		case "miss":
			missRTT += res.rtt.Seconds()
		}
	}
	// Job time of /run misses, and of every job: /coexec tasks are timed
	// in the same table under their task name.
	jobS := func(sn sched.Snapshot, runOnly bool) float64 {
		var sum float64
		for _, l := range sn.Latency {
			if _, err := bench.SpecByName(l.Benchmark); err == nil || !runOnly {
				sum += l.MeanSec * float64(l.Count)
			}
		}
		return sum
	}
	job := jobS(after, true) - jobS(before, true)
	busy := jobS(after, false) - jobS(before, false)
	t.add("sched.busy_ratio", busy/(wall*float64(runtime.NumCPU())))
	if runOK > 0 {
		t.add("sched.cache_hit_ratio", float64(hits)/float64(runOK))
	}
	t.add("sched.dedup_shared", float64(after.DedupShared-before.DedupShared))
	t.add("sched.job_s", job)
	t.add("sched.queue_wait_s", missRTT-job)
	t.add("server.hit_latency_p50_ms", 1e3*percentile(sortedCopy(hitLat), 0.5))
}

// verify checks every untraced reply: a /run result must equal
// core.Direct's result for its job, served from the cache or not, and a
// /coexec output checksum must equal the single-device oracle's.
func (s *serveWorkload) verify() []string {
	bad := s.bad
	want := map[string]string{}
	for _, i := range s.checked {
		q, res := s.reqs[i], s.got[i]
		key := string(q.body)
		if _, ok := want[key]; !ok {
			w, err := expectedDigest(q)
			if err != nil {
				bad = append(bad, fmt.Sprintf("serve request %d: expected output: %v", i, err))
				continue
			}
			want[key] = w
		}
		if res.digest != want[key] {
			bad = append(bad, fmt.Sprintf("serve request %d %s %s: reply differs from the direct run", i, q.path, key))
		}
	}
	return bad
}

// expectedDigest computes, outside the server, what a request must return.
func expectedDigest(q serveReq) (string, error) {
	if q.kind != kindCoexec {
		spec, err := bench.SpecByName(q.job.Benchmark)
		if err != nil {
			return "", err
		}
		a, err := arch.Resolve(q.job.Device)
		if err != nil {
			return "", err
		}
		r, err := core.Direct(a, q.job.Toolchain, spec, q.job.Config)
		if err != nil {
			return "", err
		}
		b, err := json.Marshal(r)
		if err != nil {
			return "", err
		}
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:]), nil
	}
	w, err := coexec.Named(q.coexec.Workload, q.coexec.Size)
	if err != nil {
		return "", err
	}
	words, _, err := coexec.Oracle(w, "cuda", arch.GTX480())
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	var b [4]byte
	for _, word := range words {
		binary.LittleEndian.PutUint32(b[:], word)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// close stops the server and the scheduler and waits for both.
func (s *serveWorkload) close() {
	if s.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx) //nolint:errcheck // in-flight requests have all returned
	s.served.Wait()
	s.client.CloseIdleConnections()
	s.sched.Close()
	s.hs = nil
}
