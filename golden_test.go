package timecache_test

// Golden experiment tests: a small Table-II slice and an LLC-sweep point are
// rendered with exactly the formatting cmd/reproduce uses and diffed
// byte-for-byte against checked-in files under results/golden/. They guard
// the "structural, not semantic" claim: any refactor of the machine assembly
// or the per-access request path that changes simulated timing — or the
// determinism of the parallel runner — fails these tests.
//
// Regenerate with:
//
//	go test -run Golden -update-golden .

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"timecache/internal/defense"
	"timecache/internal/harness"
	"timecache/internal/machine"
	"timecache/internal/stats"
	"timecache/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite results/golden files from this run")

// goldenOpts keeps the runs small enough for CI while still crossing the
// warmup boundary and several context switches per process.
func goldenOpts(jobs int) harness.Options {
	return harness.Options{
		InstrsPerProc: 60_000,
		WarmupInstrs:  40_000,
		Jobs:          jobs,
	}
}

// goldenJobs are the worker counts the golden artifacts must agree across.
var goldenJobs = []int{1, 8}

// slicePairs is the Table-II slice: two same-benchmark pairs and one mix.
func slicePairs(t *testing.T) []workload.Pair {
	t.Helper()
	want := map[string]bool{"2Xlbm": true, "2Xgobmk": true, "leslie+gobmk": true}
	var out []workload.Pair
	for _, p := range workload.SpecPairs() {
		if want[p.Label] {
			out = append(out, p)
		}
	}
	if len(out) != len(want) {
		t.Fatalf("golden: found %d of %d slice pairs", len(out), len(want))
	}
	return out
}

// tableIISlice runs the slice through the job dispatch layer — the same
// entry point the HTTP job service uses — so the checked-in artifact also
// pins the service's result bytes.
func tableIISlice(t *testing.T, jobs int) *stats.Table {
	t.Helper()
	pairs := slicePairs(t)
	labels := make([]string, len(pairs))
	for i, p := range pairs {
		labels[i] = p.Label
	}
	tab, err := harness.RunJob(harness.Job{Experiment: harness.ExpTableII, Pairs: labels}, goldenOpts(jobs))
	if err != nil {
		t.Fatalf("golden: table2 slice: %v", err)
	}
	return tab
}

// llcSweepPoint runs one Fig. 10 point (two pairs at 1 MB) through the job
// dispatch layer.
func llcSweepPoint(t *testing.T, jobs int) *stats.Table {
	t.Helper()
	tab, err := harness.RunJob(harness.Job{
		Experiment: harness.ExpLLCSweep,
		Pairs:      []string{"2Xnamd", "2Xmilc"},
		LLCSizes:   []int{1 << 20},
	}, goldenOpts(jobs))
	if err != nil {
		t.Fatalf("golden: llc sweep: %v", err)
	}
	return tab
}

// checkGolden diffs got against results/golden/<name>, rewriting the file
// under -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("results", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden: %v (regenerate with -update-golden)", err)
	}
	if string(want) != string(got) {
		t.Errorf("golden: %s diverged from checked-in artifact\n--- want ---\n%s--- got ---\n%s", name, want, got)
	}
}

func TestGoldenTableIISlice(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var first *stats.Table
	for _, jobs := range goldenJobs {
		tab := tableIISlice(t, jobs)
		if first == nil {
			first = tab
			checkGolden(t, "table2_slice.csv", []byte(tab.CSV()))
			checkGolden(t, "table2_slice.md", []byte(tab.Markdown()))
			continue
		}
		if tab.CSV() != first.CSV() {
			t.Errorf("golden: table2 slice differs between -j%d and -j%d", goldenJobs[0], jobs)
		}
	}
}

// matrixAttackBits keeps the golden matrix's attack cells small: 12 secret
// bits per channel is enough for leaks-vs-dead contrast while staying CI
// sized.
const matrixAttackBits = 12

// matrixTable runs the full default defense×attack matrix (every registry
// defense against every corpus attack, one perf pair) through the job
// dispatch layer.
func matrixTable(t *testing.T, jobs int) *stats.Table {
	t.Helper()
	tab, err := harness.RunJob(harness.Job{
		Experiment: harness.ExpMatrix,
		AttackBits: matrixAttackBits,
	}, goldenOpts(jobs))
	if err != nil {
		t.Fatalf("golden: matrix: %v", err)
	}
	return tab
}

// TestGoldenMatrix pins the defense×attack matrix bytes: all seven registry
// defenses against the full attack corpus, identical at -j1 and -j8 and
// against the checked-in artifact.
func TestGoldenMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var first *stats.Table
	for _, jobs := range goldenJobs {
		tab := matrixTable(t, jobs)
		if first == nil {
			first = tab
			checkGolden(t, "matrix.csv", []byte(tab.CSV()))
			checkGolden(t, "matrix.md", []byte(tab.Markdown()))
			continue
		}
		if tab.CSV() != first.CSV() {
			t.Errorf("golden: matrix differs between -j%d and -j%d", goldenJobs[0], jobs)
		}
	}
}

// TestDefenseEquivalence pins the tentpole refactor's central claim: every
// harness leg now selects its mechanism through the defense registry
// (machine.Config.Defense) instead of the legacy structural flags, and the
// result bytes are still the seed goldens. It also pins the ablation's
// migration onto the registry: its rows are exactly the registry kinds in
// canonical order, under the historical display names.
func TestDefenseEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	want, err := os.ReadFile(filepath.Join("results", "golden", "table2_slice.csv"))
	if err != nil {
		t.Fatalf("golden: %v (regenerate with -update-golden)", err)
	}
	if got := tableIISlice(t, 1).CSV(); got != string(want) {
		t.Errorf("golden: registry-routed table2 slice diverged from seed artifact\n--- want ---\n%s--- got ---\n%s", want, got)
	}

	abl, err := harness.RunJob(harness.Job{Experiment: harness.ExpAblation}, goldenOpts(2))
	if err != nil {
		t.Fatalf("golden: ablation: %v", err)
	}
	display := map[string]string{defense.None: "baseline", defense.DAWGLite: "partitioned"}
	var wantRows []string
	for _, kind := range defense.Kinds() {
		name := kind
		if d, ok := display[kind]; ok {
			name = d
		}
		wantRows = append(wantRows, name)
	}
	lines := strings.Split(strings.TrimSpace(abl.CSV()), "\n")
	if len(lines) != len(wantRows)+1 {
		t.Fatalf("ablation has %d rows, want header + %d defenses:\n%s", len(lines)-1, len(wantRows), abl.CSV())
	}
	for i, name := range wantRows {
		if got := strings.SplitN(lines[i+1], ",", 2)[0]; got != name {
			t.Errorf("ablation row %d = %q, want registry kind %q", i, got, name)
		}
	}
}

func TestGoldenLLCSweepPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var first *stats.Table
	for _, jobs := range goldenJobs {
		tab := llcSweepPoint(t, jobs)
		if first == nil {
			first = tab
			checkGolden(t, "llc_sweep.csv", []byte(tab.CSV()))
			checkGolden(t, "llc_sweep.md", []byte(tab.Markdown()))
			continue
		}
		if tab.CSV() != first.CSV() {
			t.Errorf("golden: llc sweep differs between -j%d and -j%d", goldenJobs[0], jobs)
		}
	}
}

// TestGoldenReusedMachines pins, end to end, that where a leg's machine
// comes from never shows in the results: the Table-II slice, the LLC-sweep
// point, a defense ablation and a matrix slice with a runtime defense render
// byte-identical CSVs on fresh machines and, run again on the same shared
// pool, on the dirty machines the first run put back — and the Table-II and
// LLC-sweep bytes match the checked-in goldens.
func TestGoldenReusedMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	jobsRuns := []harness.Job{
		{Experiment: harness.ExpTableII, Pairs: []string{"2Xlbm", "2Xgobmk", "leslie+gobmk"}},
		{Experiment: harness.ExpLLCSweep, Pairs: []string{"2Xnamd", "2Xmilc"}, LLCSizes: []int{1 << 20}},
		{Experiment: harness.ExpAblation, Pairs: []string{"2Xgobmk"}},
		// A runtime defense: its per-line state must be cleared by Reset.
		{Experiment: harness.ExpMatrix, Defenses: []string{defense.None, defense.Clepsydra},
			Attacks: []string{"smt"}, AttackBits: 8},
	}
	golden := map[string]string{"table2": "table2_slice.csv", "llc-sweep": "llc_sweep.csv"}
	for _, job := range jobsRuns {
		opts := goldenOpts(1)
		opts.Pool = machine.NewPool()
		wantTab, err := harness.RunJob(job, opts)
		if err != nil {
			t.Fatalf("golden: %s on fresh machines: %v", job.Experiment, err)
		}
		gotTab, err := harness.RunJob(job, opts)
		if err != nil {
			t.Fatalf("golden: %s on reused machines: %v", job.Experiment, err)
		}
		if s := opts.Pool.Stats(); s.Hits == 0 {
			t.Fatalf("golden: %s rerun reused no pooled machine: %+v", job.Experiment, s)
		}
		if gotTab.CSV() != wantTab.CSV() {
			t.Errorf("golden: %s differs between fresh and reused machines\n--- fresh ---\n%s--- reused ---\n%s",
				job.Experiment, wantTab.CSV(), gotTab.CSV())
		}
		if name, ok := golden[job.Experiment]; ok && !*updateGolden {
			want, err := os.ReadFile(filepath.Join("results", "golden", name))
			if err != nil {
				t.Fatalf("golden: %v (regenerate with -update-golden)", err)
			}
			if gotTab.CSV() != string(want) {
				t.Errorf("golden: %s on reused machines diverged from checked-in artifact\n--- want ---\n%s--- got ---\n%s",
					job.Experiment, want, gotTab.CSV())
			}
		}
	}
}
