package timecache

import (
	"context"

	"timecache/internal/harness"
	"timecache/internal/telemetry"
	"timecache/internal/workload"
)

// ExperimentOptions scales the table/figure reproductions. The zero value
// uses defaults sized for seconds-scale runs; raise InstrsPerProc and
// WarmupInstrs for tighter statistics.
type ExperimentOptions struct {
	// InstrsPerProc is the measured per-process instruction budget.
	InstrsPerProc uint64
	// WarmupInstrs run before measurement to exclude cold-start misses.
	WarmupInstrs uint64
	// LLCSizeBytes overrides the LLC size (Fig. 10 sweeps it).
	LLCSizeBytes int
	// GateLevel runs the gate-level bit-serial comparator during context
	// switches instead of the fast functional path.
	GateLevel bool
	// CoherenceCheck cross-checks the LLC sharer directory against a
	// brute-force probe of every L1 on every coherence event (debug mode).
	CoherenceCheck bool
	// Telemetry, when non-nil, attaches a telemetry collector to every
	// underlying run; output paths are suffixed per workload and mode.
	Telemetry *telemetry.Config
	// Jobs is the number of independent simulation runs executed
	// concurrently by the sweep reproductions. Each run constructs its own
	// machine, so results (and therefore CSV/markdown output) are
	// byte-identical to a sequential run at any job count. Zero or negative
	// uses runtime.GOMAXPROCS(0); 1 runs sequentially.
	Jobs int
	// Progress, when non-nil, receives (done, total) after each completed
	// run of a sweep. Calls are serialized.
	Progress func(done, total int)
	// Ctx, when non-nil, bounds every reproduction: cancellation or
	// deadline expiry interrupts the simulated machines within a few
	// thousand instructions and surfaces as Ctx's error. Nil means never
	// cancelled.
	Ctx context.Context
	// Account, when non-nil, accumulates per-leg resource counters
	// (simulated cycles, instructions, per-level cache accesses, context
	// switches, s-bit delayed loads) across every run the reproduction
	// dispatches — the same accounting the job service reports in its
	// result JSON, so a CLI run and an HTTP job can be compared number for
	// number (cmd/reproduce -resources writes the snapshot).
	Account *harness.ResourceAccount
}

func (o ExperimentOptions) harness() harness.Options {
	return harness.Options{
		InstrsPerProc:  o.InstrsPerProc,
		WarmupInstrs:   o.WarmupInstrs,
		LLCSize:        o.LLCSizeBytes,
		GateLevel:      o.GateLevel,
		CoherenceCheck: o.CoherenceCheck,
		Telemetry:      o.Telemetry,
		Jobs:           o.Jobs,
		Progress:       o.Progress,
		Ctx:            o.Ctx,
		Account:        o.Account,
	}
}

// ExperimentRow is one workload's measurements across the baseline and
// TimeCache configurations — a row of Table II and one bar of Figs. 7/8/9.
type ExperimentRow struct {
	Workload string
	// Normalized is TimeCache execution time over baseline (Fig. 7/9a).
	Normalized float64
	// MPKIBaseline and MPKITimeCache are the Table II LLC columns.
	MPKIBaseline, MPKITimeCache float64
	// FirstAccessL1I/L1D/LLC are the delayed-access MPKI per level
	// (Fig. 8 / 9b).
	FirstAccessL1I, FirstAccessL1D, FirstAccessLLC float64
	// BookkeepingPct is the share of execution spent on s-bit save/restore.
	BookkeepingPct float64
	// PaperNormalized/PaperMPKIBase/PaperMPKITC carry the paper's numbers
	// for the same workload when known (zero otherwise).
	PaperNormalized, PaperMPKIBase, PaperMPKITC float64
}

func toRow(r harness.PairResult, paper map[string][3]float64) ExperimentRow {
	row := ExperimentRow{
		Workload:       r.Label,
		Normalized:     r.Normalized,
		MPKIBaseline:   r.MPKIBase,
		MPKITimeCache:  r.MPKITC,
		FirstAccessL1I: r.FirstAccess.L1I,
		FirstAccessL1D: r.FirstAccess.L1D,
		FirstAccessLLC: r.FirstAccess.LLC,
		BookkeepingPct: r.BookkeepingPct,
	}
	if p, ok := paper[r.Label]; ok {
		row.PaperNormalized, row.PaperMPKIBase, row.PaperMPKITC = p[0], p[1], p[2]
	}
	return row
}

// ReproduceTableII runs all 24 single-core SPEC2006 pairs (Figs. 7 and 8,
// the SPEC half of Table II).
func ReproduceTableII(opts ExperimentOptions) ([]ExperimentRow, error) {
	rs, err := harness.RunAllSpecPairs(opts.harness())
	if err != nil {
		return nil, err
	}
	out := make([]ExperimentRow, 0, len(rs))
	for _, r := range rs {
		out = append(out, toRow(r, workload.PaperTableII))
	}
	return out, nil
}

// ReproduceSpecPair runs a single named pair (e.g. "2Xlbm", "perl+wrf").
func ReproduceSpecPair(label string, opts ExperimentOptions) (ExperimentRow, error) {
	for _, p := range workload.SpecPairs() {
		if p.Label == label {
			r, err := harness.RunSpecPair(p, opts.harness())
			if err != nil {
				return ExperimentRow{}, err
			}
			return toRow(r, workload.PaperTableII), nil
		}
	}
	// Fall back to an ad-hoc 2X pair of a known profile name.
	if _, err := workload.Spec(label); err == nil {
		r, err := harness.RunSpecPair(workload.Pair{Label: "2X" + label, A: label, B: label}, opts.harness())
		if err != nil {
			return ExperimentRow{}, err
		}
		return toRow(r, workload.PaperTableII), nil
	}
	return ExperimentRow{}, errUnknownWorkload(label)
}

type errUnknownWorkload string

func (e errUnknownWorkload) Error() string {
	return "timecache: unknown workload " + string(e)
}

// ReproduceParsec runs the six 2-thread/2-core PARSEC workloads (Figs. 9a
// and 9b, the PARSEC rows of Table II).
func ReproduceParsec(opts ExperimentOptions) ([]ExperimentRow, error) {
	rs, err := harness.RunAllParsec(opts.harness())
	if err != nil {
		return nil, err
	}
	out := make([]ExperimentRow, 0, len(rs))
	for _, r := range rs {
		out = append(out, toRow(r, workload.PaperParsec))
	}
	return out, nil
}

// SensitivityRow is one Fig. 10 point: geometric-mean overhead at one LLC
// size.
type SensitivityRow struct {
	LLCSizeBytes int
	GeoMeanNorm  float64
	OverheadPct  float64
}

// ReproduceLLCSensitivity sweeps LLC sizes over the same-benchmark pairs
// (Fig. 10; the paper reports 1.13%, 0.4%, 0.1% at 2/4/8 MB over 1B
// instructions). At this simulator's instruction budgets the eviction
// pressure that drives the effect appears at proportionally smaller
// caches, so the default sweep is 512 KB to 4 MB; the shape — overhead
// falling as the LLC grows, flattening at the bookkeeping floor — is the
// paper's.
func ReproduceLLCSensitivity(sizes []int, opts ExperimentOptions) ([]SensitivityRow, error) {
	if len(sizes) == 0 {
		sizes = []int{512 << 10, 1 << 20, 2 << 20, 4 << 20}
	}
	var pairs []workload.Pair
	for _, p := range workload.SpecPairs() {
		if p.A == p.B {
			pairs = append(pairs, p)
		}
	}
	pts, err := harness.RunLLCSensitivity(sizes, pairs, opts.harness())
	if err != nil {
		return nil, err
	}
	out := make([]SensitivityRow, 0, len(pts))
	for _, p := range pts {
		out = append(out, SensitivityRow{LLCSizeBytes: p.LLCSize, GeoMeanNorm: p.GeoMeanNorm, OverheadPct: p.OverheadPct})
	}
	return out, nil
}

// AblationRow compares one defense's normalized execution time.
type AblationRow struct {
	Defense    string
	Normalized float64
}

// ReproduceDefenseAblation compares every registered defense — the s-bit
// mechanism against FTM, DAWG-lite way partitioning, flush-on-context-
// switch, Clepsydra-style TTL eviction, and FASE-style selective flushing —
// on one workload pair, in the registry's canonical order.
func ReproduceDefenseAblation(label string, opts ExperimentOptions) ([]AblationRow, error) {
	var pair *workload.Pair
	for _, p := range workload.SpecPairs() {
		if p.Label == label {
			q := p
			pair = &q
			break
		}
	}
	if pair == nil {
		return nil, errUnknownWorkload(label)
	}
	rs, err := harness.RunDefenseAblation(*pair, opts.harness())
	if err != nil {
		return nil, err
	}
	out := make([]AblationRow, 0, len(rs))
	for _, r := range rs {
		out = append(out, AblationRow{Defense: r.Defense, Normalized: r.Normalized})
	}
	return out, nil
}

// BookkeepingRow relates the scheduler time slice to the s-bit bookkeeping
// share of execution time (§VI-D; the paper reports ~0.02% at realistic
// slice lengths).
type BookkeepingRow struct {
	SliceCycles    uint64
	BookkeepingPct float64
	OverheadPct    float64
}

// ReproduceBookkeepingScaling sweeps scheduler slice lengths to show the
// fixed 1.08 µs DMA cost per switch vanishing into longer slices.
func ReproduceBookkeepingScaling(slices []uint64, opts ExperimentOptions) ([]BookkeepingRow, error) {
	if len(slices) == 0 {
		slices = []uint64{100_000, 200_000, 400_000, 800_000}
	}
	pts, err := harness.RunBookkeepingScaling(
		workload.Pair{Label: "2Xnamd", A: "namd", B: "namd"}, slices, opts.harness())
	if err != nil {
		return nil, err
	}
	out := make([]BookkeepingRow, 0, len(pts))
	for _, p := range pts {
		out = append(out, BookkeepingRow{SliceCycles: p.SliceCycles, BookkeepingPct: p.BookkeepingPct, OverheadPct: p.OverheadPct})
	}
	return out, nil
}

// SbitCosts reports the §VI-D bookkeeping cost model: transfers per cache
// column and the cycles per switch under the DMA and copy mechanisms.
type SbitCosts struct {
	L1Transfers, LLCTransfers int
	DMACyclesPerSwitch        uint64
	CopyCyclesPerSwitch       uint64
}

// ComputeSbitCosts evaluates the s-bit save/restore cost model for the
// configured LLC size.
func ComputeSbitCosts(opts ExperimentOptions) SbitCosts {
	b := harness.SbitCost(opts.harness())
	return SbitCosts{
		L1Transfers:         b.L1Transfers,
		LLCTransfers:        b.LLCTransfers,
		DMACyclesPerSwitch:  b.DMACyclesPerSwitch,
		CopyCyclesPerSwitch: b.CopyCyclesPerSwitch,
	}
}

// SpecPairLabels lists the Table II workload labels in paper order.
func SpecPairLabels() []string {
	var out []string
	for _, p := range workload.SpecPairs() {
		out = append(out, p.Label)
	}
	return out
}
