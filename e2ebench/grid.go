package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"time"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/compiler"
	"gpucmp/internal/core"
	"gpucmp/internal/kir"
	"gpucmp/internal/perfmodel"
	"gpucmp/internal/sched"
	"gpucmp/internal/sim"
)

// gridScale is the problem-size divisor of the measured grid: the scale
// benchall's CI smoke and the /figures default sit around.
const gridScale = 2

// gridFillScale is the divisor of the set-up pass that fills the compile
// cache. Kernel source does not depend on the scale, so a small pass
// compiles everything the measured grid will build.
const gridFillScale = 32

//go:embed grid_digests.txt
var gridDigestFile string

// expectedStatus is the paper's Table VI outcome for one grid cell
// (EXPERIMENTS.md): the OpenCL radix sort fails verification on the
// HD5870 and the i7 920, and FFT, DXTC, RdxS and STNW abort on the
// Cell/BE. Every other cell runs correctly.
func expectedStatus(benchmark, device string) string {
	switch {
	case benchmark == "RdxS" && (device == arch.HD5870().Name || device == arch.Intel920().Name):
		return "FL"
	case device == arch.CellBE().Name && (benchmark == "FFT" || benchmark == "DXTC" || benchmark == "RdxS" || benchmark == "STNW"):
		return "ABT"
	}
	return "OK"
}

// cellDigest hashes everything a grid cell reports that the simulation
// determines: status, value, the three simulated times and each launch's
// dynamic warp-instruction count.
func cellDigest(r *bench.Result) string {
	h := sha256.New()
	h.Write([]byte(r.Status()))
	var b [8]byte
	for _, f := range []float64{r.Value, r.KernelSeconds, r.EndToEndSeconds, r.TransferSeconds} {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	for _, tr := range r.Traces {
		binary.LittleEndian.PutUint64(b[:], uint64(tr.Dyn.Total))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// parseDigests reads "key<TAB>digest" lines.
func parseDigests(s string) map[string]string {
	out := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), "\t"); ok {
			out[k] = v
		}
	}
	return out
}

// gridCell is one resolved grid job.
type gridCell struct {
	job  sched.Job
	spec bench.Spec
	arch *arch.Device
}

// gridWorkload runs the full figure grid cell by cell through core.Direct
// from one closed-loop caller, in a seed-shuffled order per pass.
type gridWorkload struct {
	seed    uint64
	cells   []gridCell
	digests map[string]string
	passes  int
	bad     []string
}

func (g *gridWorkload) setUp(seed uint64, _ float64) error {
	g.seed, g.passes, g.bad = seed, 0, nil
	g.digests = parseDigests(gridDigestFile)
	g.cells = g.cells[:0]
	for _, j := range sched.GridJobs(gridScale) {
		spec, err := bench.SpecByName(j.Benchmark)
		if err != nil {
			return err
		}
		a, err := arch.Resolve(j.Device)
		if err != nil {
			return err
		}
		if _, ok := g.digests[j.Key()]; !ok {
			return fmt.Errorf("grid: no recorded digest for %s", j.Key())
		}
		g.cells = append(g.cells, gridCell{job: j, spec: spec, arch: a})
	}
	// Fill the compile cache from empty, so every set-up does the same work.
	compiler.ResetCompileCache()
	for _, c := range g.cells {
		cfg := c.job.Config
		cfg.Scale = gridFillScale
		if _, err := core.Direct(c.arch, c.job.Toolchain, c.spec, cfg); err != nil {
			return fmt.Errorf("grid: fill %s: %w", c.job.Key(), err)
		}
	}
	return nil
}

// measure runs whole passes over the grid until another pass would end
// past d, and at least one pass, so every phase covers each cell equally.
func (g *gridWorkload) measure(d time.Duration, t *tracer) (*phase, error) {
	p := &phase{extra: map[string]float64{}}
	m := startMeter()
	var passes int
	for {
		elapsed := time.Since(m.start)
		if passes > 0 && elapsed+elapsed/time.Duration(passes) > d {
			break
		}
		order := rand.New(rand.NewPCG(g.seed, uint64(g.passes))).Perm(len(g.cells))
		g.passes++
		passes++
		for _, i := range order {
			c := g.cells[i]
			p.attempted++
			t0 := time.Now()
			var err error
			if t == nil {
				err = g.checkCell(c)
			} else {
				err = g.tracedCell(t, c, p.attempted)
			}
			if err != nil {
				p.failed++
				g.bad = append(g.bad, fmt.Sprintf("grid %s: %v", c.job.Key(), err))
				continue
			}
			p.lat = append(p.lat, time.Since(t0).Seconds())
		}
	}
	m.finish(p)
	p.extra["grid.passes"] = float64(passes)
	p.extra["grid.cells"] = float64(len(g.cells))
	return p, nil
}

// checkCell runs one cell untraced and checks its status against Table VI
// and its digest against the recorded one.
func (g *gridWorkload) checkCell(c gridCell) error {
	r, err := core.Direct(c.arch, c.job.Toolchain, c.spec, c.job.Config)
	if err != nil {
		return err
	}
	key := c.job.Key()
	if got, want := r.Status(), expectedStatus(c.job.Benchmark, c.job.Device); got != want {
		g.bad = append(g.bad, fmt.Sprintf("grid %s: status %s, want %s", key, got, want))
	} else if got, want := cellDigest(r), g.digests[key]; got != want {
		g.bad = append(g.bad, fmt.Sprintf("grid %s: digest %s, want %s", key, got, want))
	}
	return nil
}

// tracedCell runs one cell with a span around each call into a layer. It
// opens the driver itself (core.Direct's two steps) so device setup gets
// its own span. The wrapped driver hides the concrete runtime from bench's
// type switches, so this result is never checked.
func (g *gridWorkload) tracedCell(t *tracer, c gridCell, req int) error {
	root := t.begin("grid.cell", 0, req)
	defer t.end(root)
	id := t.begin("mem.device_setup", root, req)
	a0 := heapAllocs()
	d, err := bench.NewDriver(c.job.Toolchain, c.arch)
	t.add("mem.device_setup_alloc_mib", float64(heapAllocs()-a0)/(1<<20))
	t.end(id)
	if err != nil {
		return err
	}
	id = t.begin("bench.run", root, req)
	r, err := c.spec.Run(&tracedDriver{Driver: d, t: t, parent: id, req: req}, c.job.Config)
	t.end(id)
	if err != nil {
		return err
	}
	id = t.begin("perfmodel.kernel_time", root, req)
	tc := perfmodel.ToolchainFor(c.job.Toolchain)
	for _, tr := range r.Traces {
		perfmodel.KernelTime(c.arch, tc, tr)
	}
	t.end(id)
	return nil
}

func (g *gridWorkload) verify() []string { return g.bad }

func (g *gridWorkload) close() {}

// tracedDriver times each call a benchmark makes into the host runtime.
type tracedDriver struct {
	bench.Driver
	t           *tracer
	parent, req int
}

func (d *tracedDriver) Alloc(bytes uint32) (bench.Buf, error) {
	id := d.t.begin("runtime.alloc", d.parent, d.req)
	defer d.t.end(id)
	return d.Driver.Alloc(bytes)
}

func (d *tracedDriver) Write(dst bench.Buf, words []uint32) error {
	id := d.t.begin("runtime.h2d", d.parent, d.req)
	defer d.t.end(id)
	return d.Driver.Write(dst, words)
}

func (d *tracedDriver) Read(dst []uint32, src bench.Buf) error {
	id := d.t.begin("runtime.d2h", d.parent, d.req)
	defer d.t.end(id)
	return d.Driver.Read(dst, src)
}

func (d *tracedDriver) Build(kernels ...*kir.Kernel) (bench.Module, error) {
	id := d.t.begin("compiler.build", d.parent, d.req)
	defer d.t.end(id)
	return d.Driver.Build(kernels...)
}

func (d *tracedDriver) Launch(m bench.Module, kernel string, grid, block sim.Dim3, args ...bench.Arg) error {
	id := d.t.begin("sim.launch", d.parent, d.req)
	defer d.t.end(id)
	return d.Driver.Launch(m, kernel, grid, block, args...)
}
