package harness

import (
	"testing"

	"timecache/internal/defense"
	"timecache/internal/machine"
	"timecache/internal/stats"
)

// shardSpecs are small-budget jobs covering every experiment's leg shape.
func shardSpecs() map[string]Job {
	return map[string]Job{
		"table2": {Experiment: ExpTableII, Pairs: []string{"2Xlbm", "2Xgobmk", "leslie+gobmk"}},
		"parsec": {Experiment: ExpParsec, Workloads: []string{"blackscholes", "swaptions"}},
		"llc-sweep": {Experiment: ExpLLCSweep, Pairs: []string{"2Xlbm", "2Xgobmk"},
			LLCSizes: []int{512 << 10, 1 << 20}},
		"ablation":    {Experiment: ExpAblation, Pairs: []string{"2Xlbm"}},
		"bookkeeping": {Experiment: ExpBookkeeping, SliceCycles: []uint64{100_000, 200_000}},
		"security":    {Experiment: ExpSecurity, KeyBits: 16, Seed: 7},
		"matrix": {Experiment: ExpMatrix, Pairs: []string{"2Xlbm"},
			Defenses: []string{"none", "timecache"}, Attacks: []string{"smt", "coherence"}, AttackBits: 8},
	}
}

// runSharded runs every leg of the job on its own fresh pool — the worst
// case for state sharing, matching a fleet of separate worker processes —
// and merges the leg tables.
func runSharded(job Job, opts Options) (*stats.Table, error) {
	n, err := JobLegs(job)
	if err != nil {
		return nil, err
	}
	parts := make([]*stats.Table, n)
	for leg := 0; leg < n; leg++ {
		o := opts
		o.Pool = machine.NewPool()
		if parts[leg], err = RunJobLeg(job, leg, o); err != nil {
			return nil, err
		}
	}
	return MergeLegTables(job, parts)
}

// TestShardEquivalence is the sharding seam's correctness anchor: for every
// experiment, running each leg independently (fresh pool per leg, as a
// distributed worker would) and merging must render bytes identical to
// RunJob, which runs the same legs on shared worker pools.
func TestShardEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := Options{InstrsPerProc: 20_000, WarmupInstrs: 10_000}
	for name, job := range shardSpecs() {
		job := job
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want, err := RunJob(job, opts)
			if err != nil {
				t.Fatal(err)
			}
			merged, err := runSharded(job, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := merged.CSV(); got != want.CSV() {
				t.Errorf("sharded result diverged from unsharded\n--- want ---\n%s--- got ---\n%s", want.CSV(), got)
			}
			if merged.Markdown() != want.Markdown() {
				t.Errorf("sharded markdown diverged from unsharded")
			}
		})
	}
}

// TestJobLegsCounts pins the leg unit per experiment.
func TestJobLegsCounts(t *testing.T) {
	for name, want := range map[string]int{
		"table2": 3, "parsec": 2, "bookkeeping": 2,
		"security":  4, // two attacks × two modes
		"llc-sweep": 4, // two sizes × two pairs
		"matrix":    6, // two defenses × two attacks + two defenses × one pair
		"ablation":  len(defense.Kinds()),
	} {
		n, err := JobLegs(shardSpecs()[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != want {
			t.Errorf("JobLegs(%s) = %d, want %d", name, n, want)
		}
	}
	// The matrix's slowdown columns need the "none" cells: a job that does
	// not request the none row still runs its pairs under none.
	n, err := JobLegs(Job{Experiment: ExpMatrix, Pairs: []string{"2Xlbm", "2Xgobmk"},
		Defenses: []string{"timecache"}, Attacks: []string{"smt"}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1+2*2 {
		t.Errorf("JobLegs(matrix without none) = %d, want 5", n)
	}
	// Defaulted selections count their canonical set, same as RunJob runs.
	n, err = JobLegs(Job{Experiment: ExpTableII})
	if err != nil {
		t.Fatal(err)
	}
	if n != 24 {
		t.Errorf("JobLegs(table2, all pairs) = %d, want 24", n)
	}
}

// TestMergeLegTablesRejects: merging missing or mismatched parts errors
// instead of silently producing a corrupt table.
func TestMergeLegTablesRejects(t *testing.T) {
	job := Job{Experiment: ExpTableII}
	if _, err := MergeLegTables(job, nil); err == nil {
		t.Error("merge of zero parts succeeded")
	}
	a := stats.NewTable("workload", "normalized")
	b := stats.NewTable("workload", "different")
	if _, err := MergeLegTables(job, []*stats.Table{a, nil}); err == nil {
		t.Error("merge with nil part succeeded")
	}
	if _, err := MergeLegTables(job, []*stats.Table{a, b}); err == nil {
		t.Error("merge with mismatched headers succeeded")
	}
}

// TestRunJobLegRange: out-of-range legs are rejected.
func TestRunJobLegRange(t *testing.T) {
	job := Job{Experiment: ExpTableII, Pairs: []string{"2Xlbm"}}
	if _, err := RunJobLeg(job, 1, Options{InstrsPerProc: 1000, WarmupInstrs: 500}); err == nil {
		t.Error("leg 1 of a 1-leg job succeeded")
	}
	if _, err := RunJobLeg(job, -1, Options{}); err == nil {
		t.Error("leg -1 succeeded")
	}
}

// TestValidateSweepPoints: sweep points that would mislabel a row or
// exhaust memory are rejected before any leg runs.
func TestValidateSweepPoints(t *testing.T) {
	for _, job := range []Job{
		// The kernel would silently run its default slice under a "0" label.
		{Experiment: ExpBookkeeping, SliceCycles: []uint64{100_000, 0}},
		{Experiment: ExpLLCSweep, LLCSizes: []int{0}},
		{Experiment: ExpLLCSweep, LLCSizes: []int{-1 << 20}},
		{Experiment: ExpLLCSweep, LLCSizes: []int{MaxLLCSize + 1024}},
		{Experiment: ExpLLCSweep, LLCSizes: []int{1 << 40}},
		// Not a whole number of KB: the LLC cannot be built with 16 ways.
		{Experiment: ExpLLCSweep, LLCSizes: []int{(1 << 20) + 64}},
	} {
		if err := job.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid sweep point", job)
		}
		if _, err := JobLegs(job); err == nil {
			t.Errorf("JobLegs(%+v) accepted an invalid sweep point", job)
		}
	}
	for _, job := range []Job{
		{Experiment: ExpBookkeeping, SliceCycles: []uint64{1}},
		{Experiment: ExpLLCSweep, LLCSizes: []int{1 << 10, MaxLLCSize}},
	} {
		if err := job.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", job, err)
		}
	}
}
