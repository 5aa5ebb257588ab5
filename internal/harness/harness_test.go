package harness

import (
	"testing"

	"timecache/internal/machine"
	"timecache/internal/telemetry"
	"timecache/internal/workload"
)

// smallOpts keeps harness tests fast; calibration-grade runs happen in the
// benchmarks and the reproduce tool.
func smallOpts() Options {
	return Options{InstrsPerProc: 60_000, WarmupInstrs: 120_000}
}

// runPair measures one pair exactly as RunSpecPairs measures each of its
// pairs: on opts.Pool when set, else on fresh machines.
func runPair(pair workload.Pair, opts Options) (PairResult, error) {
	return runSpecPair(opts.Pool, pair, opts)
}

func TestRunSpecPairProducesSaneRow(t *testing.T) {
	pair := workload.Pair{Label: "2Xnamd", A: "namd", B: "namd"}
	r, err := runPair(pair, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.BaselineCycles == 0 || r.TimeCacheCycles == 0 {
		t.Fatal("cycles not measured")
	}
	if r.Normalized < 0.9 || r.Normalized > 1.3 {
		t.Fatalf("normalized time %.4f implausible", r.Normalized)
	}
	if r.MPKITC < r.MPKIBase {
		t.Fatalf("TimeCache MPKI (%.4f) should not be below baseline (%.4f): first accesses add misses",
			r.MPKITC, r.MPKIBase)
	}
	if r.FirstAccess.L1I == 0 {
		t.Fatal("shared code across context switches must generate L1I first accesses")
	}
	if r.ContextSwitches == 0 {
		t.Fatal("two processes on one core must context switch")
	}
	if r.BookkeepingPct <= 0 {
		t.Fatal("bookkeeping must be charged")
	}
}

func TestStreamingPairHasHigherMPKI(t *testing.T) {
	low, err := runPair(workload.Pair{Label: "2Xnamd", A: "namd", B: "namd"}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	high, err := runPair(workload.Pair{Label: "2Xlbm", A: "lbm", B: "lbm"}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if high.MPKIBase < 10*low.MPKIBase {
		t.Fatalf("lbm (%.3f) must dwarf namd (%.3f) in LLC MPKI, as in Table II",
			high.MPKIBase, low.MPKIBase)
	}
}

func TestRunParsecNoL1FirstAccesses(t *testing.T) {
	r, err := runParsec(nil, "blackscholes", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 9b: threads pinned to separate cores never share an L1, so all
	// first accesses land at the LLC.
	if r.FirstAccess.L1I != 0 || r.FirstAccess.L1D != 0 {
		t.Fatalf("PARSEC threads on separate cores must have no L1 first accesses, got i=%.4f d=%.4f",
			r.FirstAccess.L1I, r.FirstAccess.L1D)
	}
	if r.FirstAccess.LLC == 0 {
		t.Fatal("shared data across cores must generate LLC first accesses")
	}
}

func TestLLCSensitivityTrend(t *testing.T) {
	pairs := []workload.Pair{
		{Label: "2Xwrf", A: "wrf", B: "wrf"},
		{Label: "2Xperlbench", A: "perlbench", B: "perlbench"},
	}
	pts, err := RunLLCSensitivity([]int{512 << 10, 2 << 20}, pairs, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	// Fig. 10: overhead shrinks with LLC size (fewer evictions of shared
	// lines means fewer first accesses).
	if pts[1].OverheadPct > pts[0].OverheadPct+0.05 {
		t.Fatalf("2MB overhead (%.3f%%) should not exceed 512KB overhead (%.3f%%)",
			pts[1].OverheadPct, pts[0].OverheadPct)
	}
}

func TestDefenseAblationOrdering(t *testing.T) {
	rows, err := RunDefenseAblation(workload.Pair{Label: "2Xgobmk", A: "gobmk", B: "gobmk"}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	norm := map[string]float64{}
	for _, r := range rows {
		norm[r.Defense] = r.Normalized
	}
	if norm["baseline"] != 1.0 {
		t.Fatalf("baseline must normalize to 1.0, got %v", norm["baseline"])
	}
	// Flush-on-switch pays full refills every slice: by far the worst.
	if norm["flush-on-switch"] < norm["timecache"]+0.05 {
		t.Fatalf("flush-on-switch (%.4f) must cost much more than TimeCache (%.4f)",
			norm["flush-on-switch"], norm["timecache"])
	}
	// Way partitioning halves effective cache: worse than TimeCache here.
	if norm["partitioned"] < norm["timecache"] {
		t.Fatalf("partitioned (%.4f) expected to cost more than TimeCache (%.4f)",
			norm["partitioned"], norm["timecache"])
	}
	if _, ok := norm["ftm"]; !ok {
		t.Fatal("ftm row missing")
	}
}

func TestBookkeepingScalesDownWithSlice(t *testing.T) {
	pts, err := RunBookkeepingScaling(
		workload.Pair{Label: "2Xnamd", A: "namd", B: "namd"},
		[]uint64{100_000, 400_000}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].BookkeepingPct >= pts[0].BookkeepingPct {
		t.Fatalf("longer slices must shrink bookkeeping share: %.4f%% -> %.4f%%",
			pts[0].BookkeepingPct, pts[1].BookkeepingPct)
	}
}

func TestSbitCostMatchesPaper(t *testing.T) {
	b := SbitCost(Options{LLCSize: 2 << 20})
	if b.L1Transfers != 1 {
		t.Fatalf("32KB L1 s-bit column = %d transfers, want 1", b.L1Transfers)
	}
	if b.LLCTransfers != 64 {
		t.Fatalf("2MB LLC s-bit column = %d transfers, want 64", b.LLCTransfers)
	}
	// The DMA model charges the paper's 1.08 µs = 2160 cycles at 2 GHz.
	if b.DMACyclesPerSwitch != 2160 {
		t.Fatalf("DMA cycles = %d, want 2160", b.DMACyclesPerSwitch)
	}
}

func TestGateLevelMatchesFastPath(t *testing.T) {
	pair := workload.Pair{Label: "2Xspecrand", A: "specrand", B: "specrand"}
	opts := Options{InstrsPerProc: 30_000, WarmupInstrs: 50_000}
	fast, err := runPair(pair, opts)
	if err != nil {
		t.Fatal(err)
	}
	gopts := opts
	gopts.GateLevel = true
	gate, err := runPair(pair, gopts)
	if err != nil {
		t.Fatal(err)
	}
	// The gate-level comparator is functionally identical to the reference
	// comparison, so the simulation outcome must be identical.
	if fast.TimeCacheCycles != gate.TimeCacheCycles {
		t.Fatalf("gate-level run diverged: %d vs %d cycles", fast.TimeCacheCycles, gate.TimeCacheCycles)
	}
	if fast.MPKITC != gate.MPKITC {
		t.Fatalf("gate-level MPKI diverged: %v vs %v", fast.MPKITC, gate.MPKITC)
	}
}

// The tests below pin what the removed snapshot shelf used to be checked
// against and still holds (DESIGN.md §13 explains why there is no
// snapshot/fork): every leg runs cold on a fresh or reset machine, so where
// its machine comes from, and whether telemetry watches it, never changes a
// result, and the pool's snapshot counters stay 0.

// TestSnapshotShelfReuse: two identical legs on one shared pool produce
// identical results; the second runs on the machines the first put back,
// and nothing is served from a snapshot shelf.
func TestSnapshotShelfReuse(t *testing.T) {
	pair := workload.Pair{Label: "2Xnamd", A: "namd", B: "namd"}
	pool := machine.NewPool()
	opts := smallOpts()
	opts.Pool = pool

	first, err := runPair(pair, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := runPair(pair, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("rerun on reused machines diverged:\n first %+v\nsecond %+v", first, second)
	}
	s := pool.Stats()
	// The second run's two legs (baseline, timecache) both reuse a machine.
	if s.Hits != 2 {
		t.Fatalf("pool hits = %d, want 2 (both legs reused a machine): %+v", s.Hits, s)
	}
	if s.SnapshotHits != 0 || s.SnapshotMisses != 0 {
		t.Fatalf("snapshot counters moved: %+v", s)
	}
}

// TestMachineSourcesAgree runs one pair on every machine source a leg can
// have — private fresh machines, an empty shared pool, the same pool again
// with dirty machines in it, and a parallel sweep — and requires identical
// results.
func TestMachineSourcesAgree(t *testing.T) {
	pair := workload.Pair{Label: "2Xlbm", A: "lbm", B: "lbm"}
	base := smallOpts()

	var results []PairResult
	run := func(opts Options) {
		t.Helper()
		r, err := runPair(pair, opts)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	run(base)
	shared := base
	shared.Pool = machine.NewPool()
	run(shared)
	run(shared)
	par := base
	par.Jobs = 2
	rows, err := RunSpecPairs([]workload.Pair{pair, pair}, par)
	if err != nil {
		t.Fatal(err)
	}
	results = append(results, rows...)
	for i, got := range results[1:] {
		if got != results[0] {
			t.Fatalf("result %d diverged from the private-machine run:\n got %+v\nwant %+v", i+1, got, results[0])
		}
	}
}

// TestSnapshotTelemetryForcesCold: a telemetry collector observes the whole
// run including warmup; attaching one must not change the result, and the
// pool's snapshot counters stay 0.
func TestSnapshotTelemetryForcesCold(t *testing.T) {
	pair := workload.Pair{Label: "2Xnamd", A: "namd", B: "namd"}
	plain, err := runPair(pair, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	pool := machine.NewPool()
	opts := smallOpts()
	opts.Pool = pool
	opts.Telemetry = &telemetry.Config{}

	got, err := runPair(pair, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got != plain {
		t.Fatalf("telemetry run diverged:\n got %+v\nwant %+v", got, plain)
	}
	if s := pool.Stats(); s.SnapshotHits != 0 || s.SnapshotMisses != 0 {
		t.Fatalf("telemetry run moved the snapshot counters: %+v", s)
	}
}
