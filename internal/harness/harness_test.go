package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"timecache/internal/defense"
	"timecache/internal/machine"
	"timecache/internal/stats"
	"timecache/internal/telemetry"
	"timecache/internal/workload"
)

// smallOpts keeps harness tests fast; calibration-grade runs happen in the
// benchmarks and the reproduce tool.
func smallOpts() Options {
	return Options{InstrsPerProc: 60_000, WarmupInstrs: 120_000}
}

func TestRunSpecPairProducesSaneRow(t *testing.T) {
	pair := workload.Pair{Label: "2Xnamd", A: "namd", B: "namd"}
	r, err := runSpecPair(nil, pair, smallOpts())
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
	low, err := runSpecPair(nil, workload.Pair{Label: "2Xnamd", A: "namd", B: "namd"}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	high, err := runSpecPair(nil, workload.Pair{Label: "2Xlbm", A: "lbm", B: "lbm"}, smallOpts())
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

// column parses a rendered table's named column as floats.
func column(t *testing.T, tab *stats.Table, name string) []float64 {
	t.Helper()
	c := slices.Index(tab.Header, name)
	if c < 0 {
		t.Fatalf("no column %q in %v", name, tab.Header)
	}
	out := make([]float64, len(tab.Rows))
	for i, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[c], 64)
		if err != nil {
			t.Fatalf("row %d %s: %v", i, name, err)
		}
		out[i] = v
	}
	return out
}

func TestLLCSensitivityTrend(t *testing.T) {
	tab, err := RunJob(Job{Experiment: ExpLLCSweep, Pairs: []string{"2Xwrf", "2Xperlbench"},
		LLCSizes: []int{512 << 10, 2 << 20}}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	overhead := column(t, tab, "overhead-pct")
	if len(overhead) != 2 {
		t.Fatalf("got %d points", len(overhead))
	}
	// Fig. 10: overhead shrinks with LLC size (fewer evictions of shared
	// lines means fewer first accesses).
	if overhead[1] > overhead[0]+0.05 {
		t.Fatalf("2MB overhead (%.3f%%) should not exceed 512KB overhead (%.3f%%)",
			overhead[1], overhead[0])
	}
}

func TestDefenseAblationOrdering(t *testing.T) {
	tab, err := RunJob(Job{Experiment: ExpAblation, Pairs: []string{"2Xgobmk"}}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	norm := map[string]float64{}
	for i, v := range column(t, tab, "normalized-time") {
		norm[tab.Rows[i][0]] = v
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
	tab, err := RunJob(Job{Experiment: ExpBookkeeping, SliceCycles: []uint64{100_000, 400_000}}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	pct := column(t, tab, "bookkeeping-pct")
	if pct[1] >= pct[0] {
		t.Fatalf("longer slices must shrink bookkeeping share: %.4f%% -> %.4f%%", pct[0], pct[1])
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
	fast, err := runSpecPair(nil, pair, opts)
	if err != nil {
		t.Fatal(err)
	}
	gopts := opts
	gopts.GateLevel = true
	gate, err := runSpecPair(nil, pair, gopts)
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

// The tests below pin that every leg runs cold on a fresh or reset machine:
// where its machine comes from, and whether telemetry watches it, never
// changes a result.

// TestPoolReuseKeepsResults: the same pair run twice on one shared pool
// gives the exact same result; the second run reuses the two machines
// (baseline, timecache) the first put back.
func TestPoolReuseKeepsResults(t *testing.T) {
	pair := workload.Pair{Label: "2Xnamd", A: "namd", B: "namd"}
	pool := machine.NewPool()
	opts := smallOpts()
	opts.Pool = pool

	first, err := runSpecPair(pool, pair, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := runSpecPair(pool, pair, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("rerun on reused machines diverged:\n first %+v\nsecond %+v", first, second)
	}
	if s := pool.Stats(); s.Hits != 2 {
		t.Fatalf("pool hits = %d, want 2 (both runs reused a machine): %+v", s.Hits, s)
	}
}

// TestMachineSourcesAgree runs one pair on every machine source a leg can
// have — private fresh machines, an empty shared pool, the same pool again
// with dirty machines in it, and a parallel RunJob — and requires identical
// results.
func TestMachineSourcesAgree(t *testing.T) {
	pair := workload.Pair{Label: "2Xlbm", A: "lbm", B: "lbm"}
	base := smallOpts()

	var results []PairResult
	run := func(opts Options) {
		t.Helper()
		r, err := runSpecPair(opts.Pool, pair, opts)
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
	for i, got := range results[1:] {
		if got != results[0] {
			t.Fatalf("result %d diverged from the private-machine run:\n got %+v\nwant %+v", i+1, got, results[0])
		}
	}
	par := base
	par.Jobs = 2
	tab, err := RunJob(Job{Experiment: ExpTableII, Pairs: []string{pair.Label, pair.Label}}, par)
	if err != nil {
		t.Fatal(err)
	}
	want := stats.NewTable(pairHeader...)
	want.Add(pairRow(results[0])...)
	want.Add(pairRow(results[0])...)
	if tab.CSV() != want.CSV() {
		t.Fatalf("parallel RunJob diverged from the private-machine run:\n got %s\nwant %s", tab.CSV(), want.CSV())
	}
}

// TestTelemetryKeepsResults: a telemetry collector observes the whole run
// including warmup; attaching one must not change the exact result — cycle
// counts, bookkeeping share and context switches included — nor the
// rendered leg.
func TestTelemetryKeepsResults(t *testing.T) {
	pair := workload.Pair{Label: "2Xnamd", A: "namd", B: "namd"}
	plain, err := runSpecPair(nil, pair, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOpts()
	opts.Pool = machine.NewPool()
	opts.Telemetry = &telemetry.Config{}
	got, err := runSpecPair(opts.Pool, pair, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got != plain {
		t.Fatalf("telemetry run diverged:\n got %+v\nwant %+v", got, plain)
	}

	job := Job{Experiment: ExpTableII, Pairs: []string{pair.Label}}
	plainLeg, err := RunJobLeg(job, 0, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	gotLeg, err := RunJobLeg(job, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if gotLeg.CSV() != plainLeg.CSV() {
		t.Fatalf("telemetry leg diverged:\n got %s\nwant %s", gotLeg.CSV(), plainLeg.CSV())
	}
}

// readManifests decodes every manifest_*.json file in dir.
func readManifests(t *testing.T, dir string) []telemetry.Manifest {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "manifest_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]telemetry.Manifest, 0, len(paths))
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var m telemetry.Manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out = append(out, m)
	}
	return out
}

// TestTelemetryOneFilePerRun: every simulated machine run of a job writes
// its own telemetry files. Concurrent legs that run the same pair under the
// same mode at different LLC sizes must not overwrite each other, and the
// ablation's per-defense runs are observed like every other leg.
func TestTelemetryOneFilePerRun(t *testing.T) {
	const pair = "2Xnamd"
	sweepDir := t.TempDir()
	opts := smallOpts()
	opts.Jobs = 2
	opts.Telemetry = &telemetry.Config{ManifestJSON: filepath.Join(sweepDir, "manifest.json")}
	sizes := []int{1 << 20, 2 << 20}
	if _, err := RunJob(Job{Experiment: ExpLLCSweep, LLCSizes: sizes, Pairs: []string{pair}}, opts); err != nil {
		t.Fatal(err)
	}
	ms := readManifests(t, sweepDir)
	if len(ms) != 2*len(sizes) {
		t.Fatalf("llc-sweep wrote %d manifests, want %d (2 runs per size)", len(ms), 2*len(sizes))
	}
	perSize := map[int]int{}
	for _, m := range ms {
		perSize[m.Machine.LLCSizeBytes]++
	}
	for _, size := range sizes {
		if perSize[size] != 2 {
			t.Errorf("llc-sweep: %d manifests at LLC %d bytes, want 2 (got %v)", perSize[size], size, perSize)
		}
	}

	ablDir := t.TempDir()
	opts = smallOpts()
	opts.Telemetry = &telemetry.Config{ManifestJSON: filepath.Join(ablDir, "manifest.json")}
	if _, err := RunJob(Job{Experiment: ExpAblation, Pairs: []string{pair}}, opts); err != nil {
		t.Fatal(err)
	}
	ms = readManifests(t, ablDir)
	runs := map[string]string{} // run label -> the manifest's machine.defense
	for _, m := range ms {
		runs[fmt.Sprint(m.Meta["run"])] = m.Machine.Defense
	}
	for _, kind := range defense.Kinds() {
		want := pair + "/" + ablationName(kind)
		got, ok := runs[want]
		if !ok {
			t.Errorf("ablation: no manifest for %s (have %v)", want, runs)
		} else if got != kind {
			t.Errorf("ablation: manifest for %s records defense %q, want %q", want, got, kind)
		}
	}
	if len(ms) != len(defense.Kinds()) {
		t.Errorf("ablation wrote %d manifests, want one per defense kind (%d)", len(ms), len(defense.Kinds()))
	}
}
