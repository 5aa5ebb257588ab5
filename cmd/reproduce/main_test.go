package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"timecache/internal/harness"
)

// TestCSVEqualsRunJob pins "CLI output equals HTTP output": every CSV that
// reproduce writes must be byte-identical to harness.RunJob's rendering of
// the same job, which is what the job service returns for it (the service
// side is pinned against RunJob by TestGoldenEquivalence).
func TestCSVEqualsRunJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	want := map[string]harness.Job{
		"table2_spec.csv":           {Experiment: harness.ExpTableII},
		"table2_parsec.csv":         {Experiment: harness.ExpParsec},
		"fig10_llc_sensitivity.csv": {Experiment: harness.ExpLLCSweep},
		"security.csv":              {Experiment: harness.ExpSecurity},
		"bookkeeping.csv":           {Experiment: harness.ExpBookkeeping},
		"ablation.csv":              {Experiment: harness.ExpAblation},
		"matrix.csv":                {Experiment: harness.ExpMatrix},
	}
	out := t.TempDir()
	if err := run([]string{"-instrs", "20000", "-warmup", "20000", "-j", "2", "-out", out}, io.Discard); err != nil {
		t.Fatal(err)
	}
	opts := harness.Options{InstrsPerProc: 20_000, WarmupInstrs: 20_000, Jobs: 2}
	for name, job := range want {
		got, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatal(err)
		}
		tab, err := harness.RunJob(job, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(got) != tab.CSV() {
			t.Errorf("%s differs from RunJob(%s):\n--- cli ---\n%s--- RunJob ---\n%s", name, job.Experiment, got, tab.CSV())
		}
	}
	// Every file reproduce wrote is a CSV above or its markdown twin.
	files, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2*len(want) {
		t.Errorf("reproduce wrote %d files, want %d (a CSV and a markdown per experiment)", len(files), 2*len(want))
	}
}

// TestOnlyAliases checks the figure aliases select their experiment and an
// unknown name is an error.
func TestOnlyAliases(t *testing.T) {
	for alias, exp := range aliases {
		found := false
		for _, e := range experiments {
			found = found || e.job.Experiment == exp
		}
		if !found {
			t.Errorf("alias %s maps to unknown experiment %s", alias, exp)
		}
	}
	if err := run([]string{"-only", "nope", "-out", t.TempDir()}, io.Discard); err == nil {
		t.Fatal("unknown experiment must error")
	}
}
