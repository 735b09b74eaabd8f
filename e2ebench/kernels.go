package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"time"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/compiler"
	"gpucmp/internal/fuzz"
	"gpucmp/internal/kir"
	"gpucmp/internal/ptx"
	"gpucmp/internal/sim"
	"gpucmp/internal/submit"
)

// kernelsPerSecond over-provisions the pre-generated submissions: one
// takes about 150 ms on the reference host, so a phase never runs dry.
const kernelsPerSecond = 25

// kernelsWorkload is the untrusted-submission path: one closed-loop client
// sends distinct generated programs, each as a POST /kernels body, through
// submit.Parse, submit.Gauntlet and submit.Run on every device.
type kernelsWorkload struct {
	progs  []*fuzz.Program
	bodies [][]byte
	next   int
	done   []kernelRun // untraced submissions, checked by verify
	bad    []string
}

// kernelRun is what verify needs of one submission: its program and the
// checksum each device run reported.
type kernelRun struct {
	prog *fuzz.Program
	runs []submit.DeviceRun
}

// kernelSeed is the generator seed of submission i: seeds of different
// runs never collide for fewer than 2^20 submissions.
func kernelSeed(seed uint64, i int) uint64 { return seed<<20 + uint64(i) }

func (k *kernelsWorkload) setUp(seed uint64, seconds float64) error {
	n := int(seconds*kernelsPerSecond) + 16
	k.progs, k.bodies, k.next, k.done, k.bad = nil, nil, 0, nil, nil
	for i := 0; i < n; i++ {
		p := fuzz.Generate(kernelSeed(seed, i), fuzz.DefaultConfig())
		body, err := fuzz.Encode(p)
		if err != nil {
			return fmt.Errorf("kernels: encode program %d: %w", i, err)
		}
		k.progs = append(k.progs, p)
		k.bodies = append(k.bodies, body)
	}
	return nil
}

func (k *kernelsWorkload) measure(d time.Duration, t *tracer) (*phase, error) {
	p := &phase{extra: map[string]float64{}}
	lim := submit.DefaultLimits()
	m := startMeter()
	for time.Since(m.start) < d {
		if k.next == len(k.bodies) {
			return nil, fmt.Errorf("kernels: ran out of pre-generated submissions after %d", k.next)
		}
		i := k.next
		k.next++
		p.attempted++
		t0 := time.Now()
		runs, err := k.submit(t, i, lim)
		if err != nil {
			p.failed++
			k.bad = append(k.bad, fmt.Sprintf("kernels submission %d: %v", i, err))
			continue
		}
		p.lat = append(p.lat, time.Since(t0).Seconds())
		if t == nil {
			k.done = append(k.done, kernelRun{prog: k.progs[i], runs: runs})
		}
	}
	m.finish(p)
	return p, nil
}

// submit sends one body down the submission path. Untraced, it is
// Parse → Gauntlet → Run. Traced, Run's steps are replayed through the
// same public calls Run makes (compiler.Compile, sim.NewDevice, staging,
// Device.Launch, read-back), so compile, device setup and launch each get
// their own span.
func (k *kernelsWorkload) submit(t *tracer, i int, lim submit.Limits) ([]submit.DeviceRun, error) {
	root := t.begin("kernels.submission", 0, i)
	defer t.end(root)
	id := t.begin("submit.parse", root, i)
	s, err := submit.Parse(k.bodies[i], lim)
	t.end(id)
	if err != nil {
		return nil, err
	}
	id = t.begin("submit.gauntlet", root, i)
	err = submit.Gauntlet(s.Kernel)
	t.end(id)
	if err != nil {
		return nil, err
	}
	id = t.begin("submit.run", root, i)
	defer t.end(id)
	var runs []submit.DeviceRun
	if t == nil {
		rep, err := submit.Run(context.Background(), s, lim)
		if err != nil {
			return nil, err
		}
		runs = rep.Runs
	} else if runs, err = replayRun(t, id, i, s, lim); err != nil {
		return nil, err
	}
	for _, r := range runs {
		if r.Status != "ok" && r.Status != "skipped" {
			return nil, fmt.Errorf("%s on %s: %s: %s", r.Toolchain, r.Device, r.Status, r.Reason)
		}
	}
	return runs, nil
}

// replayRun performs submit.Run's compile-and-execute matrix with a span
// around each layer call, returning the same per-device statuses and
// output checksums.
func replayRun(t *tracer, parent, req int, s *submit.Submission, lim submit.Limits) ([]submit.DeviceRun, error) {
	var pks []*ptx.Kernel
	pers := []compiler.Personality{compiler.CUDA(), compiler.OpenCL()}
	for _, p := range pers {
		id := t.begin("compiler.build", parent, req)
		pk, err := compiler.Compile(s.Kernel, p)
		if err == nil {
			bench.ReportKernel(pk)
		}
		t.end(id)
		if err != nil {
			return nil, fmt.Errorf("compile with %s: %w", p.Name, err)
		}
		pks = append(pks, pk)
	}
	// submit.Run diffs the two disassemblies. The replay disassembles both,
	// inside the submit.run span's self time; the line diff itself is
	// unexported and left out (about 0.2 ms of a 150 ms submission).
	_, _ = pks[0].Disassemble(), pks[1].Disassemble()
	var runs []submit.DeviceRun
	for pi, pk := range pks {
		for _, a := range s.Devices {
			if pers[pi].Name == "cuda" && a.Vendor != "NVIDIA" {
				continue
			}
			r := replayOne(t, parent, req, s, pk, a, lim)
			r.Toolchain, r.Device = pers[pi].Name, a.Name
			runs = append(runs, r)
		}
	}
	return runs, nil
}

func replayOne(t *tracer, parent, req int, s *submit.Submission, pk *ptx.Kernel, a *arch.Device, lim submit.Limits) submit.DeviceRun {
	id := t.begin("mem.device_setup", parent, req)
	a0 := heapAllocs()
	dev, err := sim.NewDevice(a)
	t.add("mem.device_setup_alloc_mib", float64(heapAllocs()-a0)/(1<<20))
	t.end(id)
	if err != nil {
		return submit.DeviceRun{Status: "skipped", Reason: err.Error()}
	}
	dev.StepBudget = lim.StepBudget
	id = t.begin("runtime.h2d", parent, req)
	args, outAddr, err := stage(dev, s)
	t.end(id)
	if err != nil {
		return submit.DeviceRun{Status: "skipped", Reason: err.Error()}
	}
	id = t.begin("sim.launch", parent, req)
	_, err = dev.Launch(pk, sim.Dim3{X: s.Grid, Y: 1}, sim.Dim3{X: s.Block, Y: 1}, args)
	t.end(id)
	if err != nil {
		return submit.DeviceRun{Status: launchStatus(err), Reason: err.Error()}
	}
	out := make([]uint32, len(s.Buffers[s.Out]))
	id = t.begin("runtime.d2h", parent, req)
	err = dev.Global.ReadWords(outAddr, out)
	t.end(id)
	if err != nil {
		return submit.DeviceRun{Status: "fault", Reason: err.Error()}
	}
	return submit.DeviceRun{Status: "ok", OutChecksum: wordsChecksum(out)}
}

// launchStatus classifies a failed launch the way submit.Run does: a
// device that cannot launch the shape is skipped, not faulted.
func launchStatus(err error) string {
	switch {
	case errors.Is(err, sim.ErrWatchdog):
		return "watchdog"
	case errors.Is(err, sim.ErrOutOfResources),
		errors.Is(err, sim.ErrInvalidWorkGroupSize),
		errors.Is(err, sim.ErrInvalidConfig):
		return "skipped"
	}
	return "fault"
}

// stage copies the submission's buffers and scalars onto a fresh device
// and returns the launch arguments and the output buffer's address.
func stage(dev *sim.Device, s *submit.Submission) ([]uint32, uint32, error) {
	var args []uint32
	var outAddr uint32
	for _, prm := range s.Kernel.Params {
		if !prm.Buffer {
			args = append(args, s.Scalars[prm.Name])
			continue
		}
		data := s.Buffers[prm.Name]
		if prm.Space == kir.Const {
			off, err := dev.ConstAlloc(uint32(4 * len(data)))
			if err != nil {
				return nil, 0, err
			}
			if err := dev.ConstWrite(off, data); err != nil {
				return nil, 0, err
			}
			args = append(args, off)
			continue
		}
		addr, err := dev.Global.Alloc(uint32(4 * len(data)))
		if err != nil {
			return nil, 0, err
		}
		if err := dev.Global.WriteWords(addr, data); err != nil {
			return nil, 0, err
		}
		if prm.Name == s.Out {
			outAddr = addr
		}
		args = append(args, addr)
	}
	return args, outAddr, nil
}

// wordsChecksum is the /kernels out_checksum: the first 8 bytes of the
// SHA-256 of the buffer's little-endian bytes, in hex.
func wordsChecksum(words []uint32) string {
	h := sha256.New()
	b := make([]byte, 4)
	for _, w := range words {
		b[0], b[1], b[2], b[3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// verify checks every untraced submission: each device run that finished
// must have produced exactly the reference interpreter's output.
func (k *kernelsWorkload) verify() []string {
	bad := k.bad
	for _, kr := range k.done {
		want, err := fuzz.Reference(kr.prog)
		if err != nil {
			bad = append(bad, fmt.Sprintf("kernels seed %d: reference: %v", kr.prog.Seed, err))
			continue
		}
		sum := wordsChecksum(want)
		for _, r := range kr.runs {
			if r.Status != "ok" {
				continue
			}
			if r.OutChecksum != sum || !slices.Equal(r.Out, want[:len(r.Out)]) {
				bad = append(bad, fmt.Sprintf("kernels seed %d: %s on %s differs from the reference", kr.prog.Seed, r.Toolchain, r.Device))
			}
		}
	}
	return bad
}

func (k *kernelsWorkload) close() {}
