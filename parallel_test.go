package timecache

import (
	"slices"
	"strconv"
	"testing"

	"timecache/internal/harness"
	"timecache/internal/stats"
)

// quickOpts returns experiment options scaled down far enough for CI while
// still crossing the warmup threshold on every process.
func quickOpts(jobs int) harness.Options {
	return harness.Options{InstrsPerProc: 20_000, WarmupInstrs: 20_000, Jobs: jobs}
}

// runJob runs one experiment job through harness.RunJob — the path
// cmd/reproduce and the job service share — failing the test on error.
func runJob(tb testing.TB, j harness.Job, opts harness.Options) *stats.Table {
	tb.Helper()
	tab, err := harness.RunJob(j, opts)
	if err != nil {
		tb.Fatalf("%s: %v", j.Experiment, err)
	}
	return tab
}

// num parses one numeric cell of a rendered table.
func num(tb testing.TB, tab *stats.Table, row, col int) float64 {
	tb.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		tb.Fatalf("row %d col %d: %v", row, col, err)
	}
	return v
}

// TestParallelLLCSensitivityDeterminism runs the Fig. 10 sweep sequentially
// and with 8 workers and asserts the rendered CSV — the artifact
// `reproduce` writes — is byte-identical: the pool may change when runs
// execute, never what they compute.
func TestParallelLLCSensitivityDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	job := harness.Job{Experiment: harness.ExpLLCSweep, LLCSizes: []int{512 << 10, 1 << 20}}
	seq := runJob(t, job, quickOpts(1)).CSV()
	par := runJob(t, job, quickOpts(8)).CSV()
	if seq != par {
		t.Fatalf("CSV output differs between -j1 and -j8:\n--- j1 ---\n%s\n--- j8 ---\n%s", seq, par)
	}
}

// TestParallelAblationDeterminism exercises the trickiest rewiring: the
// defense ablation normalizes every configuration against the baseline
// run, which sequential code computed first. The parallel version must
// produce the identical table (markdown here, covering the second output
// format).
func TestParallelAblationDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	job := harness.Job{Experiment: harness.ExpAblation}
	seq := runJob(t, job, quickOpts(1)).Markdown()
	par := runJob(t, job, quickOpts(8)).Markdown()
	if seq != par {
		t.Fatalf("markdown output differs between -j1 and -j8:\n--- j1 ---\n%s\n--- j8 ---\n%s", seq, par)
	}
}

// TestParallelBookkeepingDeterminism covers the slice-length sweep with a
// cell-by-cell comparison of the rendered rows.
func TestParallelBookkeepingDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	job := harness.Job{Experiment: harness.ExpBookkeeping, SliceCycles: []uint64{50_000, 100_000}}
	seq := runJob(t, job, quickOpts(1))
	par := runJob(t, job, quickOpts(8))
	if len(seq.Rows) != len(par.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(seq.Rows), len(par.Rows))
	}
	for i := range seq.Rows {
		if !slices.Equal(seq.Rows[i], par.Rows[i]) {
			t.Fatalf("row %d differs: %v vs %v", i, seq.Rows[i], par.Rows[i])
		}
	}
}
