package main

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"timecache/internal/cache"
	"timecache/internal/defense"
	"timecache/internal/harness"
	"timecache/internal/machine"
	"timecache/internal/stats"
	"timecache/internal/workload"
)

// The seeds the result pins are recorded for. defaultSeed is also the
// --seed default; heldOutSeed is never used while tuning the benchmark.
const (
	defaultSeed uint64 = 1
	heldOutSeed uint64 = 1000003
)

// simWorkers is the harness parallelism of the in-process workloads, sized
// for a 2-vCPU host.
const simWorkers = 2

// quickOptions are the cmd/reproduce -quick budgets: 100k measured and 150k
// warmup instructions per process.
func quickOptions() harness.Options {
	return harness.Options{InstrsPerProc: 100_000, WarmupInstrs: 150_000, Jobs: simWorkers}
}

// simJob is one RunJob call of an in-process workload.
type simJob struct {
	label string // pin and report key: "table2", "parsec", "matrix"
	job   harness.Job
	// rate marks the jobs whose simulated instructions and wall time make
	// up minstr_per_s. Matrix attack cells run on machines the attack
	// package builds itself and are not charged to the ResourceAccount, so
	// a matrix call's instruction count understates its work.
	rate bool
}

// simWorkload is an in-process workload: a fixed list of RunJob calls made
// once per pass.
type simWorkload struct {
	name   string
	jobs   func(seed uint64) []simJob
	shapes func() ([]machine.Config, error) // machine shapes the legs draw
	reruns func() ([]rerunLeg, error)       // legs re-run under the Proc decorator
}

var specSweep = simWorkload{
	name: "spec-sweep",
	jobs: func(uint64) []simJob {
		return []simJob{{label: "table2", job: harness.Job{Experiment: harness.ExpTableII}, rate: true}}
	},
	shapes: specShapes,
	reruns: func() ([]rerunLeg, error) {
		a, err := specRerun("2Xlbm", cache.SecTimeCache, "")
		if err != nil {
			return nil, err
		}
		b, err := specRerun("leslie+gobmk", cache.SecOff, "")
		if err != nil {
			return nil, err
		}
		return []rerunLeg{a, b}, nil
	},
}

var defenseMulticore = simWorkload{
	name: "defense-multicore",
	jobs: func(seed uint64) []simJob {
		return []simJob{
			{label: "parsec", job: harness.Job{Experiment: harness.ExpParsec}, rate: true},
			{label: "matrix", job: harness.Job{Experiment: harness.ExpMatrix, Seed: seed}},
		}
	},
	shapes: defenseShapes,
	reruns: func() ([]rerunLeg, error) {
		p, err := parsecRerun("fluidanimate", cache.SecTimeCache)
		if err != nil {
			return nil, err
		}
		c, err := specRerun(matrixPair, cache.SecOff, "clepsydra")
		if err != nil {
			return nil, err
		}
		f, err := specRerun(matrixPair, cache.SecOff, "fase")
		if err != nil {
			return nil, err
		}
		probe, err := flushProbe("fase")
		if err != nil {
			return nil, err
		}
		return []rerunLeg{p, c, f, probe}, nil
	},
}

// matrixPair is the matrix job's default workload pair (its perf columns).
const matrixPair = "2Xgobmk"

func runSpecSweep(cfg runConfig) (*outcome, error)        { return runSim(specSweep, cfg) }
func runDefenseMulticore(cfg runConfig) (*outcome, error) { return runSim(defenseMulticore, cfg) }

// machineShape mirrors the harness's derivation of a leg's machine.Config,
// so set-up can assemble the machines a pass will draw from its pool.
func machineShape(mode cache.SecMode, def string, cores, frames int) machine.Config {
	if def == "" {
		def = defense.KindOfMode(mode)
	}
	const bucket = 8192
	return machine.Config{
		Mode:       mode,
		Defense:    def,
		Cores:      cores,
		LLCSize:    2 << 20,
		PhysFrames: (frames + bucket - 1) / bucket * bucket,
	}
}

func pairFrames(label string) (workload.Profile, workload.Profile, int, error) {
	for _, p := range workload.SpecPairs() {
		if p.Label != label {
			continue
		}
		pa, err := workload.Spec(p.A)
		if err != nil {
			return workload.Profile{}, workload.Profile{}, 0, err
		}
		pb, err := workload.Spec(p.B)
		if err != nil {
			return workload.Profile{}, workload.Profile{}, 0, err
		}
		return pa, pb, workload.FramesNeeded(pa) + workload.FramesNeeded(pb) + 1024, nil
	}
	return workload.Profile{}, workload.Profile{}, 0, fmt.Errorf("unknown pair %q", label)
}

func specShapes() ([]machine.Config, error) {
	var out []machine.Config
	for _, p := range workload.SpecPairs() {
		_, _, frames, err := pairFrames(p.Label)
		if err != nil {
			return nil, err
		}
		for _, mode := range []cache.SecMode{cache.SecOff, cache.SecTimeCache} {
			out = append(out, machineShape(mode, "", 1, frames))
		}
	}
	return out, nil
}

func defenseShapes() ([]machine.Config, error) {
	var out []machine.Config
	for _, name := range workload.ParsecNames() {
		prof, err := workload.Parsec(name)
		if err != nil {
			return nil, err
		}
		for _, mode := range []cache.SecMode{cache.SecOff, cache.SecTimeCache} {
			out = append(out, machineShape(mode, "", 2, workload.FramesNeeded(prof)+1024))
		}
	}
	_, _, frames, err := pairFrames(matrixPair)
	if err != nil {
		return nil, err
	}
	for _, def := range defense.Kinds() {
		out = append(out, machineShape(cache.SecOff, def, 1, frames))
	}
	return out, nil
}

// passResult is what one pass over a sim workload's jobs produced.
type passResult struct {
	setup, wall time.Duration
	rateWall    time.Duration // wall time of the rate jobs
	rateInstrs  uint64        // simulated instructions of the rate jobs
	peakMB      float64
	tables      map[string]*stats.Table
	resources   map[string]harness.Resources
	pool        machine.PoolStats
	trace       *tracer // traced passes only: job and leg spans
	runtime     runtimeCounters
}

// setupPool assembles the pool one pass draws from: one idle machine per
// shape per harness worker, so the pass itself builds no machines.
func setupPool(shapes []machine.Config) *machine.Pool {
	pool := machine.NewPool()
	seen := map[machine.Config]bool{}
	for _, cfg := range shapes {
		if seen[cfg] {
			continue
		}
		seen[cfg] = true
		for i := 0; i < simWorkers; i++ {
			pool.Put(machine.New(cfg))
		}
	}
	return pool
}

// simPass runs the workload's jobs once on a freshly set-up pool. Errors
// from RunJob are returned; output checks happen in the caller.
func simPass(w simWorkload, seed uint64, shapes []machine.Config, traced bool) (passResult, error) {
	quiesce()
	res := passResult{tables: map[string]*stats.Table{}, resources: map[string]harness.Resources{}}
	t0 := time.Now()
	pool := setupPool(shapes)
	res.setup = time.Since(t0)

	if traced {
		res.trace = &tracer{}
	}
	heap := startHeapSampler()
	rt0 := readRuntime()
	start := time.Now()
	for _, j := range w.jobs(seed) {
		opts := quickOptions()
		opts.Pool = pool
		var acct harness.ResourceAccount
		opts.Account = &acct
		if traced {
			opts.Spans = res.trace
		}
		js := time.Now()
		tab, err := harness.RunJob(j.job, opts)
		je := time.Now()
		d := je.Sub(js)
		if traced {
			res.trace.Span("RunJob/"+j.label, "job", js, je, nil)
		}
		if err != nil {
			heap.finish()
			return res, fmt.Errorf("%s: %w", j.label, err)
		}
		res.tables[j.label] = tab
		r := acct.Snapshot()
		res.resources[j.label] = r
		if j.rate {
			res.rateWall += d
			res.rateInstrs += r.Instructions
		}
	}
	res.wall = time.Since(start)
	res.runtime = readRuntime().sub(rt0)
	res.peakMB = heap.finish()
	res.pool = pool.Stats()
	return res, nil
}

// runSim runs the timed passes of an in-process workload, checks every
// output, and derives its metrics.
func runSim(w simWorkload, cfg runConfig) (*outcome, error) {
	out := newOutcome()
	shapes, err := w.shapes()
	if err != nil {
		return nil, err
	}
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	checkGoldenSlice(out)

	// passes runs passes for budget seconds (at least minPasses) and stops
	// at the first pass whose RunJob fails.
	var plain, traced []passResult
	passes := func(budget float64, minPasses int, tr bool) error {
		start := time.Now()
		for i := 0; i < minPasses || time.Since(start).Seconds() < budget; i++ {
			p, err := simPass(w, cfg.seed, shapes, tr)
			out.attempted += len(w.jobs(cfg.seed))
			if err != nil {
				out.failed++
				return fmt.Errorf("pass %d: %w", i, err)
			}
			checkPass(out, pins[w.name], w, cfg.seed, p)
			if tr {
				traced = append(traced, p)
			} else {
				plain = append(plain, p)
			}
		}
		return nil
	}
	if !cfg.trace {
		if err := passes(cfg.seconds, 3, false); err != nil {
			return nil, err
		}
	} else {
		if err := passes(cfg.seconds/2, 2, false); err != nil {
			return nil, err
		}
		var prof []byte
		if err := withCPUProfile(&prof, func() error { return passes(cfg.seconds/2, 2, true) }); err != nil {
			return nil, err
		}
		if err := putProfile(out.layers, prof); err != nil {
			return nil, err
		}
	}

	var walls, rates, setups, heaps []float64
	var rt runtimeCounters
	for _, p := range plain {
		walls = append(walls, p.wall.Seconds())
		rates = append(rates, float64(p.rateInstrs)/1e6/p.rateWall.Seconds())
		setups = append(setups, p.setup.Seconds())
		heaps = append(heaps, p.peakMB)
		rt = rt.add(p.runtime)
	}
	out.e2e["wall_s"] = median(walls)
	out.e2e["minstr_per_s"] = median(rates)
	out.e2e["setup_s"] = median(setups)
	out.e2e["peak_heap_mb"] = median(heaps)
	out.note("# %s: %d passes, seed %d", w.name, len(plain), cfg.seed)
	out.note("wall_s %.4f s (median of %d passes: %s)", out.e2e["wall_s"], len(walls), fmtList(walls))
	out.note("minstr_per_s %.4f Minstr/s (median over passes; %d instructions per pass in the rate jobs)",
		out.e2e["minstr_per_s"], plain[0].rateInstrs)
	out.note("setup_s %.6f s (median of %d set-ups)", out.e2e["setup_s"], len(setups))
	out.note("peak_heap_mb %.2f MB (median of per-pass peaks)", out.e2e["peak_heap_mb"])

	model(out, plain[0].tables)
	totalInstrs := uint64(0)
	for _, p := range plain {
		for _, r := range p.resources {
			totalInstrs += r.Instructions
		}
	}
	putRuntime(out.layers, rt, totalInstrs)
	// The service layers are never called in process.
	zeroUnset(out.layers, "http.", "server.", "jobstore.", "resultcache.", "cold_", "hit_")

	if cfg.trace {
		tracedLayers(out, traced)
		var tw []float64
		for _, p := range traced {
			tw = append(tw, p.wall.Seconds())
		}
		out.layers["trace.overhead_frac"] = median(tw)/out.e2e["wall_s"] - 1
		legs, err := w.reruns()
		if err != nil {
			return nil, err
		}
		runReruns(out, legs, traced[len(traced)-1].trace)
		ts := make([]*tracer, len(traced))
		for i, p := range traced {
			ts[i] = p.trace
		}
		path := ".bench_build/trace-" + w.name + ".json"
		if err := writeTrace(path, ts...); err != nil {
			return nil, err
		}
		out.note("spans of the traced passes written to %s", path)
	}
	out.note("error_frac %.4f (%d failed of %d jobs)", frac(float64(out.failed), float64(out.attempted)), out.failed, out.attempted)
	return out, nil
}

// tracedLayers derives the harness, runner, machine, and sim.* per-layer
// metrics from the traced passes.
func tracedLayers(out *outcome, passes []passResult) {
	var legMs, maxMs, busy, poolHit, snapHit []float64
	for _, p := range passes {
		var sum, mx float64
		for _, d := range p.trace.byCat("leg") {
			legMs = append(legMs, d)
			sum += d
			mx = math.Max(mx, d)
		}
		maxMs = append(maxMs, mx)
		busy = append(busy, sum/(simWorkers*ms(p.wall)))
		poolHit = append(poolHit, frac(float64(p.pool.Hits), float64(p.pool.Hits+p.pool.Misses)))
		snapHit = append(snapHit, frac(float64(p.pool.SnapshotHits), float64(p.pool.SnapshotHits+p.pool.SnapshotMisses)))
	}
	last := passes[len(passes)-1]
	var r harness.Resources
	for _, x := range last.resources {
		r = r.Add(x)
	}
	legs := last.trace.count("leg")
	out.layers["harness.legs"] = float64(legs)
	out.layers["harness.leg_ms_p50"] = median(legMs)
	out.layers["harness.leg_ms_max"] = median(maxMs)
	out.layers["runner.busy_frac"] = median(busy)
	out.layers["machine.pool_hit_frac"] = median(poolHit)
	out.layers["machine.snapshot_hit_frac"] = median(snapHit)
	out.layers["sim.instructions"] = float64(r.Instructions)
	out.layers["sim.cycles"] = float64(r.SimCycles)
	out.layers["cache.l1i_accesses"] = float64(r.L1IAccesses)
	out.layers["cache.l1d_accesses"] = float64(r.L1DAccesses)
	out.layers["cache.llc_accesses"] = float64(r.LLCAccesses)
	out.layers["kernel.context_switches"] = float64(r.ContextSwitches)
	out.layers["cache.sbit_delayed_loads"] = float64(r.SBitDelayedLoads)
	out.note("harness.legs %d per pass", legs)
}

// model reports simulated fidelity next to speed: the geometric-mean
// TimeCache overhead of the SPEC and PARSEC tables against the paper.
func model(out *outcome, tables map[string]*stats.Table) {
	out.layers["model.spec_geomean_overhead_pct"] = 0
	out.layers["model.parsec_geomean_overhead_pct"] = 0
	for label, key := range map[string]string{"table2": "spec", "parsec": "parsec"} {
		tab, ok := tables[label]
		if !ok {
			continue
		}
		g, err := geomeanOverheadPct(tab)
		if err != nil {
			out.fail("%s table: %v", label, err)
			continue
		}
		name := "model." + key + "_geomean_overhead_pct"
		out.layers[name] = g
		paper := map[string]float64{"spec": 1.13, "parsec": 0.8}[key]
		out.note("%s %.4f %% (paper: %.2f %%)", name, g, paper)
	}
}

// geomeanOverheadPct is (geomean of the "normalized" column − 1) in percent.
func geomeanOverheadPct(tab *stats.Table) (float64, error) {
	col := -1
	for i, h := range tab.Header {
		if h == "normalized" {
			col = i
		}
	}
	if col < 0 || len(tab.Rows) == 0 {
		return 0, fmt.Errorf("no normalized column")
	}
	var logSum float64
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil || v <= 0 {
			return 0, fmt.Errorf("bad normalized value %q", row[col])
		}
		logSum += math.Log(v)
	}
	return (math.Exp(logSum/float64(len(tab.Rows))) - 1) * 100, nil
}

// checkGoldenSlice runs the golden Table II slice once, outside the timed
// window, and diffs it against results/golden/table2_slice.csv.
func checkGoldenSlice(out *outcome) {
	const path = "results/golden/table2_slice.csv"
	out.attempted++
	want, err := os.ReadFile(path)
	if err != nil {
		out.failed++
		out.fail("read %s: %v", path, err)
		return
	}
	tab, err := harness.RunJob(harness.Job{
		Experiment: harness.ExpTableII,
		Pairs:      []string{"2Xlbm", "2Xgobmk", "leslie+gobmk"},
	}, harness.Options{InstrsPerProc: 60_000, WarmupInstrs: 40_000, Jobs: simWorkers})
	if err != nil {
		out.failed++
		out.fail("golden slice: %v", err)
		return
	}
	if tab.CSV() != string(want) {
		out.failed++
		out.fail("golden slice differs from %s:\n%s", path, tab.CSV())
	}
}

// checkPass compares one pass's tables and counters against the pins and
// against the first pass of this run.
func checkPass(out *outcome, pins map[string]jobPin, w simWorkload, seed uint64, p passResult) {
	for _, j := range w.jobs(seed) {
		pin, ok := pins[j.label]
		if !ok {
			out.failed++
			out.fail("%s: no pin for job %s", w.name, j.label)
			continue
		}
		tab := p.tables[j.label]
		if msg := pin.check(tab, seed); msg != "" {
			out.failed++
			out.fail("%s %s table: %s", w.name, j.label, msg)
		}
		if got := p.resources[j.label]; got != pin.Resources {
			out.failed++
			out.fail("%s %s resources %+v, pinned %+v", w.name, j.label, got, pin.Resources)
		}
	}
}

// zeroUnset sets to 0 every per-layer metric under prefixes that the
// workload did not measure: the layers it does not exercise.
func zeroUnset(layers map[string]float64, prefixes ...string) {
	for _, m := range perLayer {
		if _, ok := layers[m.name]; !ok && hasPrefix(m.name, prefixes...) {
			layers[m.name] = 0
		}
	}
}

// hasPrefix reports whether s starts with any of prefixes.
func hasPrefix(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}
