// Job dispatch: a declarative description of one experiment, attack, or
// sweep run, decoupled from any CLI flag parsing, and RunJob, which runs
// it. cmd/reproduce, the HTTP job service (internal/server) and the golden
// tests all funnel through this layer, so a job submitted over the network
// is byte-identical to one run from the CLI.
package harness

import (
	"fmt"
	"sort"

	"timecache/internal/defense"
	"timecache/internal/machine"
	"timecache/internal/runner"
	"timecache/internal/stats"
	"timecache/internal/workload"
)

// Experiment names Dispatchable job kinds.
const (
	ExpTableII     = "table2"      // SPEC pairs: Fig. 7/8, Table II rows
	ExpParsec      = "parsec"      // PARSEC workloads: Fig. 9a/9b
	ExpLLCSweep    = "llc-sweep"   // Fig. 10 LLC-size sensitivity
	ExpAblation    = "ablation"    // defense comparison on one pair
	ExpBookkeeping = "bookkeeping" // §VI-D slice-length scaling
	ExpSecurity    = "security"    // §VI-A microbenchmark + RSA attack
	ExpMatrix      = "matrix"      // defense×attack leakage/overhead grid
)

// Experiments lists the dispatchable experiment names, sorted.
func Experiments() []string {
	out := make([]string, 0, len(experiments))
	for name := range experiments {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// MaxLLCSize caps every LLC size a job may request (64 MB, 16× the largest
// Fig. 10 point). The simulated LLC allocates its lines and s-bits up front
// (a 64 MB LLC machine holds ~57 MB of heap), so an unbounded size would let
// one spec exhaust the host's memory. Sizes must also be whole KB, the LLC's
// way×line granularity.
const MaxLLCSize = 64 << 20

// Job describes one dispatchable run. Zero-valued selection fields fall back
// to each experiment's full default set, so {Experiment: "table2"} runs the
// whole SPEC half of Table II while {Experiment: "table2", Pairs: ["2Xlbm"]}
// runs one row.
type Job struct {
	// Experiment is one of the Exp* names.
	Experiment string
	// Pairs selects Table II / sweep / ablation workload pairs by label
	// ("2Xlbm", "leslie+gobmk"). Empty selects the experiment's default:
	// every pair for table2, the same-benchmark pairs for llc-sweep, and
	// 2Xgobmk for ablation (which takes exactly one pair).
	Pairs []string
	// Workloads selects PARSEC workloads by name. Empty selects all.
	Workloads []string
	// LLCSizes are the llc-sweep points in bytes. Empty selects the Fig. 10
	// default sweep (512 KB – 4 MB).
	LLCSizes []int
	// SliceCycles are the bookkeeping-scaling slice lengths. Empty selects
	// the default ladder (100k – 800k).
	SliceCycles []uint64
	// KeyBits is the security experiment's RSA key length (default 64).
	KeyBits int
	// Seed seeds the security and matrix experiments' secret generation
	// (default 12345).
	Seed uint64
	// Defenses selects the matrix experiment's rows by registry kind
	// (defense.Kinds). Empty selects every registered defense.
	Defenses []string
	// Attacks selects the matrix experiment's leakage columns
	// (MatrixAttacks). Empty selects the full attack corpus.
	Attacks []string
	// AttackBits is the secret length each matrix attack transmits
	// (default 32).
	AttackBits int
}

// Validate checks the job before it is queued: the experiment must exist,
// every named pair/workload must resolve, and every sweep point must be in
// range. It is intentionally strict so the job service can reject bad specs
// with a 400 instead of failing at run time.
func (j Job) Validate() error {
	switch j.Experiment {
	case ExpTableII:
		_, err := selectPairs(j.Pairs)
		return err
	case ExpLLCSweep:
		for _, size := range j.LLCSizes {
			if size <= 0 || size > MaxLLCSize || size%1024 != 0 {
				return fmt.Errorf("harness: llc-sweep size %d bytes is not a whole number of KB in (0, %d]", size, MaxLLCSize)
			}
		}
		_, err := selectPairs(j.Pairs)
		return err
	case ExpAblation:
		if _, err := selectPairs(j.Pairs); err != nil {
			return err
		}
		if len(j.Pairs) > 1 {
			// Report the requested count, not the resolved one: with empty
			// labels selectPairs resolves to the full default set, and the
			// resolved count would misstate what the client actually asked
			// for.
			return fmt.Errorf("harness: ablation takes exactly one pair, got %d", len(j.Pairs))
		}
		return nil
	case ExpParsec:
		for _, name := range j.Workloads {
			if _, err := workload.Parsec(name); err != nil {
				return err
			}
		}
		return nil
	case ExpBookkeeping:
		for _, slice := range j.SliceCycles {
			if slice == 0 {
				return fmt.Errorf("harness: bookkeeping slice lengths must be positive, got 0")
			}
		}
		return nil
	case ExpSecurity:
		return nil
	case ExpMatrix:
		if _, err := selectPairs(j.Pairs); err != nil {
			return err
		}
		for _, d := range j.Defenses {
			if !defense.Valid(d) {
				return fmt.Errorf("harness: unknown defense %q (want one of %v)", d, defense.Kinds())
			}
		}
		for _, a := range j.Attacks {
			if matrixAttackByName(a) == nil {
				return fmt.Errorf("harness: unknown attack %q (want one of %v)", a, MatrixAttacks())
			}
		}
		if j.AttackBits < 0 {
			return fmt.Errorf("harness: matrix attack bits must be non-negative, got %d", j.AttackBits)
		}
		return nil
	case "":
		return fmt.Errorf("harness: job has no experiment (want one of %v)", Experiments())
	default:
		return fmt.Errorf("harness: unknown experiment %q (want one of %v)", j.Experiment, Experiments())
	}
}

// selectPairs resolves pair labels against the Table II list, preserving
// request order. Empty labels select every pair. The lookup is a linear scan
// over the 24-entry list — it sits on the fingerprint/admission path, where
// a map would cost an allocation per call for no measurable speedup.
func selectPairs(labels []string) ([]workload.Pair, error) {
	all := workload.SpecPairs()
	if len(labels) == 0 {
		return all, nil
	}
	out := make([]workload.Pair, 0, len(labels))
lookup:
	for _, l := range labels {
		for _, p := range all {
			if p.Label == l {
				out = append(out, p)
				continue lookup
			}
		}
		return nil, fmt.Errorf("harness: unknown workload pair %q", l)
	}
	return out, nil
}

// RunJob validates and runs a job, returning its rendered result table. It
// runs the job's legs (JobLegs) across opts.Jobs workers, each drawing
// machines from opts.Pool when set or from its own pool otherwise, and
// merges them with MergeLegTables — exactly the path the job service takes
// one leg at a time. The run obeys opts.Ctx (cancellation, deadlines) and
// reports opts.Progress after each completed leg.
//
// The job is canonicalized first (Canonical is the single source of truth
// for every defaulted selection), so the result depends only on the
// canonical form — which is exactly what Fingerprint hashes and what the
// result cache in front of the job service keys on.
func RunJob(j Job, opts Options) (*stats.Table, error) {
	if err := j.Validate(); err != nil {
		return nil, err
	}
	j = j.Canonical()
	n := experiments[j.Experiment].legs(j)
	parts, err := runner.MapWorkersCtx(opts.ctx(), n, opts.pool(), opts.newPool, func(pool *machine.Pool, leg int) (*stats.Table, error) {
		o := opts
		o.Pool = pool
		return RunJobLeg(j, leg, o)
	})
	if err != nil {
		return nil, err
	}
	return MergeLegTables(j, parts)
}

func samePairs(pairs []workload.Pair) []workload.Pair {
	var out []workload.Pair
	for _, p := range pairs {
		if p.A == p.B {
			out = append(out, p)
		}
	}
	return out
}
