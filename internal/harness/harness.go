// Package harness runs the paper's experiments end to end: it builds paired
// (baseline, TimeCache) machines, executes the calibrated workloads, and
// reduces the counters to the quantities each table and figure reports.
package harness

import (
	"context"
	"fmt"
	"strings"
	"time"

	"timecache/internal/cache"
	"timecache/internal/clock"
	"timecache/internal/core"
	"timecache/internal/defense"
	"timecache/internal/kernel"
	"timecache/internal/machine"
	"timecache/internal/runner"
	"timecache/internal/stats"
	"timecache/internal/telemetry"
	"timecache/internal/workload"
)

// Options controls experiment scale and fidelity.
type Options struct {
	// InstrsPerProc is the per-process measured instruction budget (the
	// paper runs 1B instructions in gem5; the default here is sized for
	// seconds-scale runs — raise it for tighter statistics).
	InstrsPerProc uint64
	// WarmupInstrs run before measurement starts so cold-start misses do
	// not pollute steady-state MPKI and timing (the paper's 1B-instruction
	// runs amortize them; short runs must exclude them explicitly).
	WarmupInstrs uint64
	// LLCSize overrides the last-level cache size (Fig. 10 sweeps it).
	LLCSize int
	// GateLevel routes context-switch comparisons through the gate-level
	// bit-serial model.
	GateLevel bool
	// SliceCycles overrides the scheduler time slice.
	SliceCycles uint64
	// CoherenceCheck cross-checks the LLC sharer directory against a
	// brute-force probe of every L1 on every coherence event (debug mode;
	// slows runs by O(cores) per access).
	CoherenceCheck bool
	// Telemetry, when non-nil, attaches a telemetry collector to every
	// simulated machine run; configured output paths are suffixed with
	// "<experiment>_<leg>_<run>" (e.g. "llc-sweep_3_2Xlbm-timecache") so one
	// config fans out over a whole job, concurrent legs included, without
	// two runs writing the same file. The §VI-A and matrix attack cells
	// assemble their own machines and are not observed.
	Telemetry *telemetry.Config
	// Jobs is the number of legs RunJob runs concurrently. Each leg builds
	// or resets its own machines, so results are bit-identical to sequential
	// execution; see internal/runner. Zero or negative selects
	// runtime.GOMAXPROCS(0); 1 is strictly sequential. RunJobLeg ignores it.
	Jobs int
	// Progress, when non-nil, is called by RunJob after each completed leg
	// with (done, total). Calls are serialized.
	Progress func(done, total int)
	// Ctx, when non-nil, bounds every run: cancellation stops the simulated
	// machine within a few thousand instructions and surfaces as Ctx.Err()
	// from RunJob or RunJobLeg. Nil means never cancelled.
	Ctx context.Context
	// Pool, when non-nil, supplies (and receives back) the machines for
	// every run instead of per-worker private pools. machine.Pool is safe
	// for concurrent use, so one pool may serve a whole job — the job
	// service shares one pool per service worker across all its jobs.
	Pool *machine.Pool
	// Spans, when non-nil, receives one wall-clock span per simulated
	// machine run (experiment leg), named "<label>/<mode>" with the run's
	// simulated cycles and instructions as args. The job service passes the
	// job's SpanRecorder here. Nil costs the run one comparison.
	Spans telemetry.SpanSink
	// Now supplies the wall timestamps for Spans. Nil means time.Now; the
	// job service injects its wall clock so traces are deterministic in
	// tests.
	Now func() time.Time
	// Account, when non-nil, accumulates the resource counters of every
	// completed run (simulated cycles, instructions, per-level accesses,
	// context switches, s-bit delayed loads). Adds are atomic, so one
	// account serves a parallel sweep. Nil costs the run one comparison.
	Account *ResourceAccount

	// exp and leg address the job leg being run; RunJobLeg sets them so
	// telemetry outputs are named per leg.
	exp string
	leg int
}

// pool builds the runner options for this configuration.
func (o Options) pool() runner.Options {
	return runner.Options{Workers: o.Jobs, Progress: o.Progress}
}

// ctx returns the configured context, never nil.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// newPool returns the machine pool for one sweep worker: the shared
// Options.Pool when set, otherwise a fresh private pool.
func (o Options) newPool() *machine.Pool {
	if o.Pool != nil {
		return o.Pool
	}
	return machine.NewPool()
}

// attachTelemetry attaches a collector to m for the machine run labeled
// label (e.g. "2Xlbm/timecache") of the current job leg, or returns nil
// when telemetry is off.
func (o Options) attachTelemetry(m *machine.Machine, label string) *telemetry.Collector {
	if o.Telemetry == nil {
		return nil
	}
	suffix := sanitizeLabel(label)
	if o.exp != "" {
		suffix = fmt.Sprintf("%s_%d_%s", o.exp, o.leg, suffix)
	}
	col := m.AttachTelemetry(o.Telemetry.WithSuffix(suffix))
	col.SetMeta("experiment", o.exp)
	col.SetMeta("leg", o.leg)
	col.SetMeta("run", label)
	return col
}

// finishTelemetry writes a run's telemetry outputs (nil-safe).
func finishTelemetry(col *telemetry.Collector) error {
	if col == nil {
		return nil
	}
	return col.Finish()
}

// wallNow reads the injected wall clock (clock.Real when unset).
func (o Options) wallNow() time.Time {
	if o.Now != nil {
		return o.Now()
	}
	return clock.Real{}.Now()
}

// legStart stamps the beginning of one machine run when spans are on. The
// zero time when Spans is nil keeps the disabled path off the clock.
func (o Options) legStart() time.Time {
	if o.Spans == nil {
		return time.Time{}
	}
	return o.wallNow()
}

// finishLeg accounts one completed machine run and records its span. Both
// hooks are leg-granularity: nothing here runs on the per-access or
// per-instruction hot paths, so an attached account or sink costs one
// counter snapshot per leg and a disabled one costs two nil checks.
func (o Options) finishLeg(name string, start time.Time, k *kernel.Kernel) {
	if o.Account == nil && o.Spans == nil {
		return
	}
	m := snapCounters(k)
	o.Account.add(m)
	if o.Spans != nil {
		o.Spans.Span(name, "leg", start, o.wallNow(), map[string]any{
			"sim_cycles":   m.cycles,
			"instructions": m.instrs,
		})
	}
}

// finishAttackLeg accounts one attack run. The attack scenarios assemble
// their own machines, so there are no kernel counters to read: only the leg
// count and the span.
func (o Options) finishAttackLeg(name string, start time.Time) {
	o.Account.AddLeg()
	if o.Spans != nil {
		o.Spans.Span(name, "leg", start, o.wallNow(), nil)
	}
}

// sanitizeLabel makes a workload label safe as a filename fragment.
func sanitizeLabel(label string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ' ', ':':
			return '-'
		}
		return r
	}, label)
}

// Defaults fills unset options.
func (o Options) withDefaults() Options {
	if o.InstrsPerProc == 0 {
		o.InstrsPerProc = 300_000
	}
	if o.WarmupInstrs == 0 {
		o.WarmupInstrs = 250_000
	}
	if o.LLCSize == 0 {
		o.LLCSize = 2 << 20
	}
	return o
}

// measurement is a counter snapshot delta between the warm point (when the
// last process crosses its warmup budget) and the end of the run. It keeps
// whole Stats structs per level; derived quantities (LLC MPKI inputs,
// per-level first accesses) are read off the structs in result().
type measurement struct {
	cycles uint64
	instrs uint64
	l1i    cache.Stats // aggregated across cores
	l1d    cache.Stats
	llc    cache.Stats
	kern   kernel.Stats
}

// snapCounters captures the counters measurement subtracts.
func snapCounters(k *kernel.Kernel) measurement {
	h := k.Hierarchy()
	m := measurement{
		cycles: maxClock(k),
		instrs: totalInstructions(k),
		llc:    h.LLC().Stats,
		kern:   k.Stats,
	}
	for c := 0; c < h.Config().Cores; c++ {
		m.l1i = m.l1i.Add(h.L1I(c).Stats)
		m.l1d = m.l1d.Add(h.L1D(c).Stats)
	}
	return m
}

func (m measurement) sub(start measurement) measurement {
	return measurement{
		cycles: m.cycles - start.cycles,
		instrs: m.instrs - start.instrs,
		l1i:    m.l1i.Delta(start.l1i),
		l1d:    m.l1d.Delta(start.l1d),
		llc:    m.llc.Delta(start.llc),
		kern:   m.kern.Delta(start.kern),
	}
}

// LevelMPKI holds per-cache-level first-access (delayed access) MPKI, the
// quantity of Figures 8 and 9b.
type LevelMPKI struct {
	L1I, L1D, LLC float64
}

// PairResult is one workload row across both configurations.
type PairResult struct {
	Label string

	BaselineCycles  uint64
	TimeCacheCycles uint64
	// Normalized is TimeCacheCycles/BaselineCycles (Fig. 7 / 9a / 10).
	Normalized float64

	// MPKIBase and MPKITC are LLC misses (including first-access misses)
	// per kilo-instruction, Table II's last two columns.
	MPKIBase, MPKITC float64

	// FirstAccess is the delayed-access MPKI per level under TimeCache
	// (Fig. 8 / 9b).
	FirstAccess LevelMPKI

	// BookkeepingPct is the share of total TimeCache cycles spent on s-bit
	// save/restore (the paper reports ~0.02%).
	BookkeepingPct float64
	// ContextSwitches under the TimeCache run.
	ContextSwitches uint64
}

// machineConfig derives the machine assembly config for an experiment. The
// defense registry kind is spelled out alongside the legacy mode so every
// experiment leg runs through the Defense seam (for the historical modes the
// two spellings configure identical machines; TestDefenseEquivalence pins
// that).
func machineConfig(mode cache.SecMode, cores int, opts Options, frames int) machine.Config {
	return machine.Config{
		Mode:           mode,
		Defense:        defense.KindOfMode(mode),
		Cores:          cores,
		LLCSize:        opts.LLCSize,
		GateLevel:      opts.GateLevel,
		CoherenceCheck: opts.CoherenceCheck,
		SliceCycles:    opts.SliceCycles,
		PhysFrames:     frameBudget(frames),
	}
}

// frameBudget rounds a frame requirement up to an 8192-frame (32 MB)
// bucket. Physical capacity only gates out-of-memory — it never changes
// timing — so coarse buckets let workloads with similar footprints share
// one pooled machine shape instead of splitting the pool per exact size.
func frameBudget(frames int) int {
	const bucket = 8192
	return (frames + bucket - 1) / bucket * bucket
}

// leg describes one machine run: how to build its machine, how to populate
// it, and how to label its outputs.
type leg struct {
	label string         // span name, telemetry suffix and error-message subject, e.g. "2Xlbm/timecache"
	mcfg  machine.Config // machine shape (includes mode and overrides)
	// spawn installs the leg's processes with their warmup set and OnWarm
	// wired to onWarm, returning how many processes must warm before the
	// measurement window starts.
	spawn func(k *kernel.Kernel, onWarm func()) (int, error)
}

// runLeg runs one leg on a pooled machine and returns its steady-state
// measurement: the counters at the end of the run minus those at the warm
// point.
func runLeg(pool *machine.Pool, opts Options, l leg) (measurement, error) {
	legStart := opts.legStart()
	m := pool.Get(l.mcfg)
	defer pool.Put(m)
	k := m.Kernel()
	var warm measurement
	warmed, targets := 0, -1
	onWarm := func() {
		warmed++
		if warmed == targets {
			warm = snapCounters(k)
		}
	}
	n, err := l.spawn(k, onWarm)
	if err != nil {
		return measurement{}, err
	}
	targets = n
	col := opts.attachTelemetry(m, l.label)
	k.RunCtx(opts.ctx(), 1<<62)
	if err := opts.ctx().Err(); err != nil {
		return measurement{}, err
	}
	if !k.AllExited() {
		return measurement{}, fmt.Errorf("harness: %s did not finish", l.label)
	}
	if warmed != targets {
		return measurement{}, fmt.Errorf("harness: %s never reached steady state", l.label)
	}
	if err := finishTelemetry(col); err != nil {
		return measurement{}, err
	}
	opts.finishLeg(l.label, legStart, k)
	return snapCounters(k).sub(warm), nil
}

// specLeg builds the leg for one Fig. 7 workload (two processes, one core)
// under the given mode. labelSuffix names the leg's span/error label
// ("<pair>/<suffix>"); it is the mode name for the paired runs and the
// defense name for ablation legs.
func specLeg(pair workload.Pair, mcfg machine.Config, labelSuffix string, opts Options) (leg, error) {
	pa, err := workload.Spec(pair.A)
	if err != nil {
		return leg{}, err
	}
	pb, err := workload.Spec(pair.B)
	if err != nil {
		return leg{}, err
	}
	total := opts.WarmupInstrs + opts.InstrsPerProc
	return leg{
		label: pair.Label + "/" + labelSuffix,
		mcfg:  mcfg,
		spawn: func(k *kernel.Kernel, onWarm func()) (int, error) {
			_, procA, err := workload.Spawn(k, pa, workload.SpawnOptions{Instrs: total, Seed: 1001})
			if err != nil {
				return 0, err
			}
			_, procB, err := workload.Spawn(k, pb, workload.SpawnOptions{Instrs: total, Seed: 2002})
			if err != nil {
				return 0, err
			}
			procA.Warmup, procA.OnWarm = opts.WarmupInstrs, onWarm
			procB.Warmup, procB.OnWarm = opts.WarmupInstrs, onWarm
			return 2, nil
		},
	}, nil
}

// specFrames is the frame budget for a two-process spec pair.
func specFrames(pair workload.Pair) (int, error) {
	pa, err := workload.Spec(pair.A)
	if err != nil {
		return 0, err
	}
	pb, err := workload.Spec(pair.B)
	if err != nil {
		return 0, err
	}
	return workload.FramesNeeded(pa) + workload.FramesNeeded(pb) + 1024, nil
}

// runSpecPairOnce runs one Fig. 7 workload (two processes, one core) under
// the given mode and returns the steady-state measurement. The machine
// comes from pool (nil builds fresh).
func runSpecPairOnce(pool *machine.Pool, pair workload.Pair, mode cache.SecMode, opts Options) (measurement, error) {
	frames, err := specFrames(pair)
	if err != nil {
		return measurement{}, err
	}
	l, err := specLeg(pair, machineConfig(mode, 1, opts, frames), mode.String(), opts)
	if err != nil {
		return measurement{}, err
	}
	return runLeg(pool, opts, l)
}

func totalInstructions(k *kernel.Kernel) uint64 {
	var n uint64
	for _, p := range k.Processes() {
		n += p.Stats.Instructions
	}
	return n
}

func maxClock(k *kernel.Kernel) uint64 {
	var m uint64
	for c := 0; c < k.Hierarchy().Config().Cores; c++ {
		if t := k.CoreClock(c); t > m {
			m = t
		}
	}
	return m
}

// result reduces two steady-state measurements to a PairResult.
func result(label string, mb, mt measurement) PairResult {
	res := PairResult{
		Label:           label,
		BaselineCycles:  mb.cycles,
		TimeCacheCycles: mt.cycles,
		MPKIBase:        stats.MPKI(mb.llc.Misses+mb.llc.FirstAccess, mb.instrs),
		MPKITC:          stats.MPKI(mt.llc.Misses+mt.llc.FirstAccess, mt.instrs),
		FirstAccess: LevelMPKI{
			L1I: stats.MPKI(mt.l1i.FirstAccess, mt.instrs),
			L1D: stats.MPKI(mt.l1d.FirstAccess, mt.instrs),
			LLC: stats.MPKI(mt.llc.FirstAccess, mt.instrs),
		},
		ContextSwitches: mt.kern.ContextSwitches,
	}
	res.Normalized = stats.Normalized(res.TimeCacheCycles, res.BaselineCycles)
	if res.TimeCacheCycles > 0 {
		res.BookkeepingPct = float64(mt.kern.BookkeepingCycles) / float64(res.TimeCacheCycles) * 100
	}
	return res
}

// runSpecPair measures one Fig. 7 / Table II row: the same pair under the
// baseline and under TimeCache, on machines from pool (nil builds fresh).
func runSpecPair(pool *machine.Pool, pair workload.Pair, opts Options) (PairResult, error) {
	opts = opts.withDefaults()
	mb, err := runSpecPairOnce(pool, pair, cache.SecOff, opts)
	if err != nil {
		return PairResult{}, err
	}
	mt, err := runSpecPairOnce(pool, pair, cache.SecTimeCache, opts)
	if err != nil {
		return PairResult{}, err
	}
	return result(pair.Label, mb, mt), nil
}

// runParsecOnce runs one 2-thread/2-core PARSEC workload on a machine from
// pool (nil builds fresh).
func runParsecOnce(pool *machine.Pool, name string, mode cache.SecMode, opts Options) (measurement, error) {
	prof, err := workload.Parsec(name)
	if err != nil {
		return measurement{}, err
	}
	frames := workload.FramesNeeded(prof) + 1024
	mcfg := machineConfig(mode, 2, opts, frames)
	total := opts.WarmupInstrs + opts.InstrsPerProc
	l := leg{
		label: name + "/" + mode.String(),
		mcfg:  mcfg,
		spawn: func(k *kernel.Kernel, onWarm func()) (int, error) {
			as, err := workload.BuildSharedAS(k, prof)
			if err != nil {
				return 0, err
			}
			for t := 0; t < 2; t++ {
				proc := workload.NewProc(prof, total, uint64(3000+t*17))
				proc.Warmup, proc.OnWarm = opts.WarmupInstrs, onWarm
				if _, err := k.Spawn(fmt.Sprintf("%s.t%d", name, t), proc, as.Share(), t); err != nil {
					return 0, err
				}
			}
			return 2, nil
		},
	}
	return runLeg(pool, opts, l)
}

// runParsec measures one Fig. 9 row on machines from pool (nil builds
// fresh).
func runParsec(pool *machine.Pool, name string, opts Options) (PairResult, error) {
	opts = opts.withDefaults()
	mb, err := runParsecOnce(pool, name, cache.SecOff, opts)
	if err != nil {
		return PairResult{}, err
	}
	mt, err := runParsecOnce(pool, name, cache.SecTimeCache, opts)
	if err != nil {
		return PairResult{}, err
	}
	return result(name, mb, mt), nil
}

// runDefensePair runs one Fig. 7 pair under a defense registry kind on the
// baseline machine shape and returns its steady-state cycles; the ablation
// and the matrix's slowdown columns normalize them against the "none" run.
// labelSuffix names the run's span ("<pair>/<suffix>").
func runDefensePair(pool *machine.Pool, pair workload.Pair, kind, labelSuffix string, opts Options) (uint64, error) {
	frames, err := specFrames(pair)
	if err != nil {
		return 0, err
	}
	mcfg := machineConfig(cache.SecOff, 1, opts, frames)
	mcfg.Defense = kind
	l, err := specLeg(pair, mcfg, labelSuffix, opts)
	if err != nil {
		return 0, err
	}
	m, err := runLeg(pool, opts, l)
	return m.cycles, err
}

// SbitCostBreakdown quantifies §VI-D: how many transfers one switch needs
// per cache and the cycles charged per switch by each cost model.
type SbitCostBreakdown struct {
	L1Transfers, LLCTransfers int
	DMACyclesPerSwitch        uint64
	CopyCyclesPerSwitch       uint64
}

// SbitCost computes the §VI-D bookkeeping costs for the configured caches.
func SbitCost(opts Options) SbitCostBreakdown {
	opts = opts.withDefaults()
	l1Lines := (32 << 10) / cache.LineSize
	llcLines := opts.LLCSize / cache.LineSize
	dma := core.DefaultCostModel()
	copyModel := core.CostModel{TransferCycles: 200} // one 64B DRAM transfer
	return SbitCostBreakdown{
		L1Transfers:         core.SbitTransfers(l1Lines),
		LLCTransfers:        core.SbitTransfers(llcLines),
		DMACyclesPerSwitch:  dma.SwitchCost([]int{l1Lines, l1Lines, llcLines}),
		CopyCyclesPerSwitch: copyModel.SwitchCost([]int{l1Lines, l1Lines, llcLines}),
	}
}
