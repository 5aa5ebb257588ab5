// Experiments as legs: every experiment a Job can dispatch is an ordered
// list of independent legs plus one reduce step. A leg runs one unit of
// simulation on one machine pool and renders exactly one row under the
// experiment's leg header; MergeLegTables reduces the rows, in leg order,
// to the result table. RunJob runs every leg in process and merges; the job
// service leases the same legs to executors — worker goroutines, separate
// worker processes, or a mix — and merges with the same function, so both
// paths run the same simulations and render the same bytes. A leg's row
// depends only on the canonical job and the leg index, never on which
// process or pool ran it.
//
// The leg unit per experiment:
//
//	table2       one SPEC pair                 (one Table II row)
//	parsec       one PARSEC workload           (one row)
//	bookkeeping  one slice length              (one row)
//	security     one (attack, mode) run        (one row, in table order)
//	llc-sweep    one (LLC size, pair) cell     (raw cycles; the merge takes
//	                                            the geomean per size)
//	ablation     one defense                   (raw cycles; the merge
//	                                            normalizes against "none")
//	matrix       one defense×attack run or one (raw accuracy or cycles; the
//	             defense×pair run              merge builds the grid)
//
// Legs that feed a reduce emit exact raw values — cycles as integers,
// accuracies in shortest round-trip form — so the merge computes the
// normalized, geomean and leaked-bits columns from the same numbers an
// unsplit computation would. No leg re-runs another leg's work: the "none"
// baseline the ablation and the matrix normalize against is its own leg.
package harness

import (
	"fmt"
	"slices"
	"strconv"

	"timecache/internal/attack"
	"timecache/internal/defense"
	"timecache/internal/machine"
	"timecache/internal/stats"
	"timecache/internal/workload"
)

// experiment defines one dispatchable experiment.
type experiment struct {
	// legHeader is the header of every leg table.
	legHeader []string
	// legs is the leg count of a canonical job.
	legs func(j Job) int
	// run runs leg i of a canonical job, drawing machines from pool, and
	// returns its row's cells.
	run func(j Job, i int, pool *machine.Pool, opts Options) ([]any, error)
	// reduce turns the legs' rows, in leg order, into the result table. Nil
	// means the leg rows are the result rows.
	reduce func(j Job, rows [][]string) (*stats.Table, error)
}

// pairHeader is the Table II slice format (results/golden/table2_slice.csv).
var pairHeader = []string{"workload", "normalized", "mpki-base", "mpki-tc", "fa-l1i", "fa-l1d", "fa-llc"}

var experiments = map[string]experiment{
	ExpTableII: {
		legHeader: pairHeader,
		legs:      func(j Job) int { return len(j.Pairs) },
		run: func(j Job, i int, pool *machine.Pool, opts Options) ([]any, error) {
			r, err := runSpecPair(pool, pairOf(j.Pairs[i]), opts)
			return pairRow(r), err
		},
	},
	ExpParsec: {
		legHeader: pairHeader,
		legs:      func(j Job) int { return len(j.Workloads) },
		run: func(j Job, i int, pool *machine.Pool, opts Options) ([]any, error) {
			r, err := runParsec(pool, j.Workloads[i], opts)
			return pairRow(r), err
		},
	},
	ExpBookkeeping: {
		legHeader: []string{"slice-cycles", "bookkeeping-pct", "total-overhead-pct"},
		legs:      func(j Job) int { return len(j.SliceCycles) },
		run:       runBookkeepingLeg,
	},
	ExpSecurity: {
		legHeader: []string{"experiment", "mode", "result"},
		// The microbenchmark and the RSA attack, each under every defense.
		legs: func(Job) int { return 2 * len(securityKinds) },
		run:  runSecurityLeg,
	},
	ExpLLCSweep: {
		legHeader: []string{"llc", "workload", "baseline-cycles", "timecache-cycles"},
		legs:      func(j Job) int { return len(j.LLCSizes) * len(j.Pairs) },
		run:       runLLCSweepLeg,
		reduce:    reduceLLCSweep,
	},
	ExpAblation: {
		legHeader: []string{"defense", "cycles"},
		legs:      func(Job) int { return len(defense.Kinds()) },
		run:       runAblationLeg,
		reduce:    reduceAblation,
	},
	ExpMatrix: {
		legHeader: []string{"defense", "column", "raw"},
		legs:      func(j Job) int { return len(matrixCells(j)) },
		run:       runMatrixLeg,
		reduce:    reduceMatrix,
	},
}

// JobLegs returns how many schedulable legs the job dispatches. The count is
// a pure function of the canonical job, so a coordinator and a worker that
// were handed the same job always agree on the leg address space.
func JobLegs(j Job) (int, error) {
	if err := j.Validate(); err != nil {
		return 0, err
	}
	j = j.Canonical()
	return experiments[j.Experiment].legs(j), nil
}

// RunJobLeg runs one leg of the job and renders its one-row leg table. The
// leg index addresses the canonical job: RunJobLeg(j, i) renders the same
// bytes regardless of which process or pool runs it. Machines come from
// opts.Pool when set, else from a fresh pool.
func RunJobLeg(j Job, leg int, opts Options) (*stats.Table, error) {
	if err := j.Validate(); err != nil {
		return nil, err
	}
	j = j.Canonical()
	e := experiments[j.Experiment]
	if n := e.legs(j); leg < 0 || leg >= n {
		return nil, fmt.Errorf("harness: job has %d legs, leg %d out of range", n, leg)
	}
	if err := opts.ctx().Err(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	o.exp, o.leg = j.Experiment, leg
	row, err := e.run(j, leg, opts.newPool(), o)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable(e.legHeader...)
	tab.Add(row...)
	return tab, nil
}

// MergeLegTables reduces a job's leg tables, in leg order, to its result
// table. It rejects a part list of the wrong length and any part that is
// not one row under the experiment's leg header — such parts came from a
// different job or from a build with a different leg address space.
func MergeLegTables(j Job, parts []*stats.Table) (*stats.Table, error) {
	if err := j.Validate(); err != nil {
		return nil, err
	}
	j = j.Canonical()
	e := experiments[j.Experiment]
	if n := e.legs(j); len(parts) != n {
		return nil, fmt.Errorf("harness: %s job has %d legs, got %d leg tables", j.Experiment, n, len(parts))
	}
	rows := make([][]string, len(parts))
	for i, p := range parts {
		if err := checkLeg(j, e, i, p); err != nil {
			return nil, err
		}
		rows[i] = p.Rows[0]
	}
	if e.reduce != nil {
		return e.reduce(j, rows)
	}
	out := stats.NewTable(e.legHeader...)
	out.Rows = rows
	return out, nil
}

// CheckLegTable reports whether t can be leg leg of the job in this build:
// the index is in range and t is one row under the experiment's leg header.
// A leg table checkpointed by a build with a different leg address space
// fails it.
func CheckLegTable(j Job, leg int, t *stats.Table) error {
	if err := j.Validate(); err != nil {
		return err
	}
	j = j.Canonical()
	e := experiments[j.Experiment]
	if n := e.legs(j); leg < 0 || leg >= n {
		return fmt.Errorf("harness: job has %d legs, leg %d out of range", n, leg)
	}
	return checkLeg(j, e, leg, t)
}

// checkLeg checks that t is one row under e's leg header.
func checkLeg(j Job, e experiment, leg int, t *stats.Table) error {
	if t == nil {
		return fmt.Errorf("harness: leg %d of %s has no table", leg, j.Experiment)
	}
	if !slices.Equal(t.Header, e.legHeader) {
		return fmt.Errorf("harness: leg %d header %q is not the %s leg header %q",
			leg, t.Header, j.Experiment, e.legHeader)
	}
	if len(t.Rows) != 1 || len(t.Rows[0]) != len(e.legHeader) {
		return fmt.Errorf("harness: leg %d of %s is not one %d-cell row", leg, j.Experiment, len(e.legHeader))
	}
	return nil
}

// pairRow renders a PairResult in the Table II slice format.
func pairRow(r PairResult) []any {
	return []any{r.Label, r.Normalized, r.MPKIBase, r.MPKITC,
		r.FirstAccess.L1I, r.FirstAccess.L1D, r.FirstAccess.LLC}
}

// bookkeepingPair is the pair the §VI-D slice-length scaling runs.
var bookkeepingPair = workload.Pair{Label: "2Xnamd", A: "namd", B: "namd"}

// runBookkeepingLeg measures the bookkeeping share at one slice length: the
// fixed per-switch DMA cost (1.08 µs = 2160 cycles at 2 GHz) shrinks as a
// fraction of execution time as the slice grows toward realistic 1–10 ms
// scheduler quanta, converging on the paper's ~0.02% figure.
func runBookkeepingLeg(j Job, i int, pool *machine.Pool, opts Options) ([]any, error) {
	opts.SliceCycles = j.SliceCycles[i]
	r, err := runSpecPair(pool, bookkeepingPair, opts)
	return []any{opts.SliceCycles, r.BookkeepingPct, stats.OverheadPct(r.Normalized)}, err
}

// securityKinds are the defenses each §VI-A attack runs under, in row
// order; their rows and spans are named by ablationName.
var securityKinds = []string{defense.None, defense.TimeCache}

// runSecurityLeg runs one §VI-A attack under one defense: the
// microbenchmark under each defense, then the RSA flush+reload attack under
// each defense.
func runSecurityLeg(j Job, i int, _ *machine.Pool, opts Options) ([]any, error) {
	kind := securityKinds[i%len(securityKinds)]
	name := ablationName(kind)
	cfg := machine.Config{Defense: kind}
	start := opts.legStart()
	if i < len(securityKinds) {
		mb, err := attack.RunMicrobenchmark(cfg)
		if err != nil {
			return nil, err
		}
		opts.finishAttackLeg("microbenchmark/"+name, start)
		return []any{"microbenchmark (§VI-A1)", name,
			fmt.Sprintf("%d/%d lines hit", mb.Hits, mb.Lines)}, nil
	}
	rsa, err := attack.RunRSA(cfg, j.KeyBits, j.Seed)
	if err != nil {
		return nil, err
	}
	opts.finishAttackLeg("rsa/"+name, start)
	return []any{"RSA flush+reload (§VI-A2)", name,
		fmt.Sprintf("%.0f%% of key bits, %d hits, victim correct=%v",
			rsa.Accuracy*100, rsa.Hits, rsa.VictimCorrect)}, nil
}

// runLLCSweepLeg runs one Fig. 10 cell: pair i%len(Pairs) at LLC size
// i/len(Pairs), under the baseline and under TimeCache.
func runLLCSweepLeg(j Job, i int, pool *machine.Pool, opts Options) ([]any, error) {
	opts.LLCSize = j.LLCSizes[i/len(j.Pairs)]
	r, err := runSpecPair(pool, pairOf(j.Pairs[i%len(j.Pairs)]), opts)
	return []any{fmt.Sprintf("%dKB", opts.LLCSize>>10), r.Label, r.BaselineCycles, r.TimeCacheCycles}, err
}

// reduceLLCSweep renders Fig. 10 in the golden sweep format
// (results/golden/llc_sweep.csv): per LLC size, the geometric-mean
// normalized time of its pairs and the overhead it implies.
func reduceLLCSweep(j Job, rows [][]string) (*stats.Table, error) {
	tab := stats.NewTable("llc", "geomean-normalized", "overhead-pct")
	n := len(j.Pairs)
	for si := range j.LLCSizes {
		norms := make([]float64, n)
		for pi := range norms {
			row := rows[si*n+pi]
			base, err := rawUint(row[2])
			if err != nil {
				return nil, err
			}
			tc, err := rawUint(row[3])
			if err != nil {
				return nil, err
			}
			norms[pi] = stats.Normalized(tc, base)
		}
		gm := stats.GeoMean(norms)
		tab.Add(rows[si*n][0], gm, stats.OverheadPct(gm))
	}
	return tab, nil
}

// ablationName is the ablation's row name for a registry kind: the
// historical "baseline" for none and "partitioned" for dawg-lite; every
// other row displays its kind.
func ablationName(kind string) string {
	switch kind {
	case defense.None:
		return "baseline"
	case defense.DAWGLite:
		return "partitioned"
	}
	return kind
}

// runAblationLeg runs the ablation pair under registry kind i.
func runAblationLeg(j Job, i int, pool *machine.Pool, opts Options) ([]any, error) {
	kind := defense.Kinds()[i]
	name := ablationName(kind)
	cycles, err := runDefensePair(pool, pairOf(j.Pairs[0]), kind, name, opts)
	return []any{name, cycles}, err
}

// reduceAblation normalizes every defense's cycles against the baseline's:
// the first registry kind is "none".
func reduceAblation(_ Job, rows [][]string) (*stats.Table, error) {
	tab := stats.NewTable("defense", "normalized-time")
	base, err := rawUint(rows[0][1])
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		cycles, err := rawUint(row[1])
		if err != nil {
			return nil, err
		}
		tab.Add(row[0], stats.Normalized(cycles, base))
	}
	return tab, nil
}

// rawUint parses a leg's raw integer cell.
func rawUint(s string) (uint64, error) {
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("harness: leg cell %q is not a raw integer: %w", s, err)
	}
	return v, nil
}

// pairOf resolves one pair label of a validated job.
func pairOf(label string) workload.Pair {
	pairs, _ := selectPairs([]string{label})
	return pairs[0]
}
