package main

import (
	"context"
	"fmt"
	"time"

	"timecache/internal/cache"
	"timecache/internal/harness"
	"timecache/internal/kernel"
	"timecache/internal/machine"
	"timecache/internal/sim"
	"timecache/internal/workload"
)

// The simulator's inner layers run tens of nanoseconds per call, so they
// are timed on re-runs of a few legs outside the harness: each leg is
// assembled with machine.New and workload.Spawn, every spawned process's
// Proc is wrapped in a sampling decorator, and the leg runs with
// kernel.RunCtx. The same leg also runs undecorated; both runs' counters
// must equal each other and the harness's own run of that leg.

// sampleEvery is the decorator's sampling period: one Step in this many is
// timed, along with every Env call it makes.
const sampleEvery = 64

// rerunLeg is one leg to re-run: its harness span label (empty for a leg
// the harness does not run), machine shape, and process set-up.
type rerunLeg struct {
	label string
	cfg   machine.Config
	spawn func(k *kernel.Kernel) ([]*kernel.Process, error)
}

// Env operations the decorator times.
const (
	opFetch = iota
	opLoad
	opStore
	opFlush
	numOps
)

var opNames = [numOps]string{"fetch", "load", "store", "flush"}

// layerTimer accumulates sampled timings over every decorated process.
type layerTimer struct {
	steps    uint64  // all Step calls
	sampled  uint64  // timed Step calls
	stepNs   float64 // timed Step time, timer cost removed
	selfNs   float64 // timed Step time minus its Env calls
	opNs     [numOps]float64
	opCount  [numOps]uint64
	timerNs  float64 // cost of one time.Now, calibrated once
	plainNs  float64 // wall time of the undecorated runs
	legCount int
}

// timingProc decorates a sim.Proc, timing one Step in sampleEvery.
type timingProc struct {
	inner sim.Proc
	t     *layerTimer
	env   timingEnv
}

func (p *timingProc) Step(env sim.Env) bool {
	p.t.steps++
	if p.t.steps%sampleEvery != 0 {
		return p.inner.Step(env)
	}
	p.env = timingEnv{inner: env}
	t0 := time.Now()
	ok := p.inner.Step(&p.env)
	d := float64(time.Since(t0))
	calls := float64(p.env.calls)
	tau := p.t.timerNs
	// Each timed Env call adds two clock reads to the Step's span and one
	// to its own; the Step's own pair adds one.
	p.t.sampled++
	p.t.stepNs += d - (2*calls+1)*tau
	p.t.selfNs += d - p.env.ns - (calls+1)*tau
	for op := 0; op < numOps; op++ {
		p.t.opNs[op] += p.env.opNs[op] - float64(p.env.opCount[op])*tau
		p.t.opCount[op] += p.env.opCount[op]
	}
	return ok
}

// timingEnv decorates a sim.Env for one sampled Step, timing the memory
// operations; the remaining methods pass through untimed.
type timingEnv struct {
	inner   sim.Env
	calls   uint64
	ns      float64
	opNs    [numOps]float64
	opCount [numOps]uint64
}

func (e *timingEnv) done(op int, t0 time.Time) {
	d := float64(time.Since(t0))
	e.calls++
	e.ns += d
	e.opNs[op] += d
	e.opCount[op]++
}

func (e *timingEnv) Fetch(vaddr uint64) {
	t0 := time.Now()
	e.inner.Fetch(vaddr)
	e.done(opFetch, t0)
}

func (e *timingEnv) Load(vaddr uint64) uint64 {
	t0 := time.Now()
	v := e.inner.Load(vaddr)
	e.done(opLoad, t0)
	return v
}

func (e *timingEnv) Store(vaddr, v uint64) {
	t0 := time.Now()
	e.inner.Store(vaddr, v)
	e.done(opStore, t0)
}

func (e *timingEnv) Flush(vaddr uint64) {
	t0 := time.Now()
	e.inner.Flush(vaddr)
	e.done(opFlush, t0)
}

func (e *timingEnv) Now() uint64                    { return e.inner.Now() }
func (e *timingEnv) Tick(n uint64)                  { e.inner.Tick(n) }
func (e *timingEnv) Instret(n uint64)               { e.inner.Instret(n) }
func (e *timingEnv) Syscall(num, arg uint64) uint64 { return e.inner.Syscall(num, arg) }
func (e *timingEnv) PID() int                       { return e.inner.PID() }

// clockReadNs calibrates the cost of one time.Now call.
func clockReadNs() float64 {
	const n = 200_000
	start := time.Now()
	for i := 0; i < n; i++ {
		_ = time.Now()
	}
	return float64(time.Since(start)) / n
}

// runLegOnce assembles and runs one leg, decorating its processes when t is
// non-nil, and returns its counters and wall time.
func runLegOnce(l rerunLeg, t *layerTimer) (harness.Resources, time.Duration, error) {
	m := machine.New(l.cfg)
	k := m.Kernel()
	procs, err := l.spawn(k)
	if err != nil {
		return harness.Resources{}, 0, err
	}
	if t != nil {
		for _, p := range procs {
			p.Proc = &timingProc{inner: p.Proc, t: t}
		}
	}
	start := time.Now()
	k.RunCtx(context.Background(), 1<<62)
	wall := time.Since(start)
	if !k.AllExited() {
		return harness.Resources{}, 0, fmt.Errorf("leg %s did not finish", l.label)
	}
	var acct harness.ResourceAccount
	acct.AddRun(k)
	return acct.Snapshot(), wall, nil
}

// runReruns re-runs the legs decorated and undecorated, checks their
// counters against each other and against the harness spans, and stores
// the inner-layer metrics.
func runReruns(out *outcome, legs []rerunLeg, trace *tracer) {
	t := &layerTimer{timerNs: clockReadNs()}
	for _, l := range legs {
		out.attempted++
		plain, wall, err := runLegOnce(l, nil)
		if err != nil {
			out.failed++
			out.fail("re-run %s: %v", l.label, err)
			continue
		}
		traced, _, err := runLegOnce(l, t)
		if err != nil {
			out.failed++
			out.fail("decorated re-run %s: %v", l.label, err)
			continue
		}
		t.plainNs += float64(wall)
		t.legCount++
		if traced != plain {
			out.failed++
			out.fail("re-run %s: decorated counters %+v != undecorated %+v", l.label, traced, plain)
		}
		if l.label == "" {
			continue
		}
		if msg := matchSpan(trace, l.label, plain); msg != "" {
			out.failed++
			out.fail("re-run %s: %s", l.label, msg)
		}
	}
	if t.steps == 0 {
		return
	}
	stepNs := frac(t.stepNs, float64(t.sampled))
	out.layers["workload.step_self_ns"] = frac(t.selfNs, float64(t.sampled))
	out.layers["kernel.sched_ns_per_step"] = t.plainNs/float64(t.steps) - stepNs
	for op := 0; op < numOps; op++ {
		out.layers["env."+opNames[op]+"_ns"] = frac(t.opNs[op], float64(t.opCount[op]))
	}
	out.note("re-ran %d legs (%d steps, %d sampled, clock read %.1f ns); counters match the harness legs",
		t.legCount, t.steps, t.sampled, t.timerNs)
}

// matchSpan compares a re-run's whole-run counters with the args of the
// harness span of the same leg.
func matchSpan(trace *tracer, label string, r harness.Resources) string {
	trace.mu.Lock()
	defer trace.mu.Unlock()
	for _, s := range trace.spans {
		if s.cat != "leg" || s.name != label {
			continue
		}
		cy, _ := s.args["sim_cycles"].(uint64)
		in, _ := s.args["instructions"].(uint64)
		if cy != r.SimCycles || in != r.Instructions {
			return fmt.Sprintf("cycles/instructions %d/%d, harness leg ran %d/%d", r.SimCycles, r.Instructions, cy, in)
		}
		return ""
	}
	return "no harness span for this leg"
}

// specRerun re-runs one Table II (or matrix perf) leg: two processes of a
// SPEC pair on one core, spawned as the harness spawns them. def, when
// set, selects the defense as the matrix perf cells do.
func specRerun(pair string, mode cache.SecMode, def string) (rerunLeg, error) {
	pa, pb, frames, err := pairFrames(pair)
	if err != nil {
		return rerunLeg{}, err
	}
	opts := quickOptions()
	total := opts.WarmupInstrs + opts.InstrsPerProc
	label := pair + "/" + mode.String()
	if def != "" {
		label = pair + "/matrix-" + def
	}
	return rerunLeg{
		label: label,
		cfg:   machineShape(mode, def, 1, frames),
		spawn: func(k *kernel.Kernel) ([]*kernel.Process, error) {
			a, _, err := workload.Spawn(k, pa, workload.SpawnOptions{Instrs: total, Seed: 1001})
			if err != nil {
				return nil, err
			}
			b, _, err := workload.Spawn(k, pb, workload.SpawnOptions{Instrs: total, Seed: 2002})
			if err != nil {
				return nil, err
			}
			return []*kernel.Process{a, b}, nil
		},
	}, nil
}

// parsecRerun re-runs one PARSEC leg: two threads sharing an address space
// on two cores.
func parsecRerun(name string, mode cache.SecMode) (rerunLeg, error) {
	prof, err := workload.Parsec(name)
	if err != nil {
		return rerunLeg{}, err
	}
	opts := quickOptions()
	total := opts.WarmupInstrs + opts.InstrsPerProc
	return rerunLeg{
		label: name + "/" + mode.String(),
		cfg:   machineShape(mode, "", 2, workload.FramesNeeded(prof)+1024),
		spawn: func(k *kernel.Kernel) ([]*kernel.Process, error) {
			as, err := workload.BuildSharedAS(k, prof)
			if err != nil {
				return nil, err
			}
			var procs []*kernel.Process
			for t := 0; t < 2; t++ {
				proc := workload.NewProc(prof, total, uint64(3000+t*17))
				p, err := k.Spawn(fmt.Sprintf("%s.t%d", name, t), proc, as.Share(), t)
				if err != nil {
					return nil, err
				}
				procs = append(procs, p)
			}
			return procs, nil
		},
	}, nil
}

// flushProbe is a clflush+reload loop over a shared region, the access
// pattern of the matrix's flush-based attacks, run beside a SPEC process
// under the given defense. The attack programs build their machines inside
// the attack package, so their own processes cannot be decorated; this
// probe gives env.flush_ns a base on the matrix's machine shape.
func flushProbe(def string) (rerunLeg, error) {
	const (
		base   = 0x7000_0000
		lines  = 256
		rounds = 200_000
	)
	pa, _, frames, err := pairFrames(matrixPair)
	if err != nil {
		return rerunLeg{}, err
	}
	return rerunLeg{
		cfg: machineShape(cache.SecOff, def, 1, frames),
		spawn: func(k *kernel.Kernel) ([]*kernel.Process, error) {
			victim, _, err := workload.Spawn(k, pa, workload.SpawnOptions{Instrs: rounds, Seed: 1001})
			if err != nil {
				return nil, err
			}
			as := kernel.NewAddressSpace(k.Physical())
			if err := k.MapSharedRegion(as, "probe", base, lines*cache.LineSize); err != nil {
				return nil, err
			}
			i := 0
			probe := sim.ProcFunc(func(env sim.Env) bool {
				addr := uint64(base + (i%lines)*cache.LineSize)
				env.Fetch(base)
				env.Load(addr)
				env.Flush(addr)
				env.Tick(1)
				env.Instret(1)
				i++
				return i < rounds
			})
			p, err := k.Spawn("flush-probe", probe, as, 0)
			if err != nil {
				return nil, err
			}
			return []*kernel.Process{victim, p}, nil
		},
	}, nil
}
