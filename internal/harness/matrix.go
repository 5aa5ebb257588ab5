// The defense×attack evaluation matrix: every registered defense is run
// against every side-channel attack in the corpus and against real
// workloads, producing one grid that shows in a single table what each
// mechanism stops, what it misses, and what it costs. This is the
// experiment the Defense seam exists for — a row is added by registering a
// kind, not by writing a new experiment.
package harness

import (
	"fmt"
	"slices"
	"strconv"

	"timecache/internal/attack"
	"timecache/internal/cache"
	"timecache/internal/defense"
	"timecache/internal/machine"
	"timecache/internal/replacement"
	"timecache/internal/stats"
	"timecache/internal/workload"
)

// matrixAttack ties an attack-corpus name to its attack entry point, reduced to the attacker's bit-recovery accuracy. Declaration
// order is the canonical column order (the matrix job's default attack
// set).
type matrixAttack struct {
	name string
	run  func(cfg machine.Config, bits int, seed uint64) (float64, error)
}

var matrixAttacks = []matrixAttack{
	{"flush-reload", func(cfg machine.Config, bits int, seed uint64) (float64, error) {
		r, err := attack.RunRSA(cfg, bits, seed)
		return r.Accuracy, err
	}},
	{"flush-flush", func(cfg machine.Config, bits int, seed uint64) (float64, error) {
		r, err := attack.RunFlushFlush(cfg, bits, seed)
		return r.Accuracy, err
	}},
	{"prime-probe", func(cfg machine.Config, bits int, seed uint64) (float64, error) {
		r, err := attack.RunPrimeProbe(cfg, bits, seed)
		return r.Accuracy, err
	}},
	{"lru", func(cfg machine.Config, bits int, seed uint64) (float64, error) {
		cfg.Policy = replacement.LRU
		r, err := attack.RunLRU(cfg, bits, seed)
		return r.Accuracy, err
	}},
	{"coherence", func(cfg machine.Config, bits int, seed uint64) (float64, error) {
		r, err := attack.RunCoherence(cfg, bits, seed)
		return r.Accuracy, err
	}},
	{"smt", func(cfg machine.Config, bits int, seed uint64) (float64, error) {
		r, err := attack.RunSMT(cfg, bits, seed)
		return r.Accuracy, err
	}},
	{"llc-occupancy", func(cfg machine.Config, bits int, seed uint64) (float64, error) {
		r, err := attack.RunLLCOccupancy(cfg, bits, seed)
		return r.Accuracy, err
	}},
}

// MatrixAttacks lists the attack-corpus names in canonical column order.
func MatrixAttacks() []string {
	out := make([]string, len(matrixAttacks))
	for i, a := range matrixAttacks {
		out[i] = a.name
	}
	return out
}

func matrixAttackByName(name string) *matrixAttack {
	for i := range matrixAttacks {
		if matrixAttacks[i].name == name {
			return &matrixAttacks[i]
		}
	}
	return nil
}

// matrixCell is one matrix leg: an attack mounted under a defense
// (attack != "") or a workload pair run under a defense for the slowdown
// columns (attack == "").
type matrixCell struct {
	defense string
	attack  string
	pair    workload.Pair
}

// column names the result column the cell's raw value feeds.
func (c matrixCell) column() string {
	if c.attack != "" {
		return "bits-" + c.attack
	}
	return "slowdown-" + c.pair.Label
}

// perfDefenses are the defenses a canonical matrix job runs its pairs
// under: the requested rows, preceded by the "none" baseline the slowdown
// columns normalize against when it was not requested.
func perfDefenses(j Job) []string {
	if slices.Contains(j.Defenses, defense.None) {
		return j.Defenses
	}
	return append([]string{defense.None}, j.Defenses...)
}

// matrixCells lists a canonical matrix job's legs in flat order: the attack
// block (defense-major), then the perf block (perfDefenses-major).
func matrixCells(j Job) []matrixCell {
	perfDefs := perfDefenses(j)
	cells := make([]matrixCell, 0, len(j.Defenses)*len(j.Attacks)+len(perfDefs)*len(j.Pairs))
	for _, d := range j.Defenses {
		for _, a := range j.Attacks {
			cells = append(cells, matrixCell{defense: d, attack: a})
		}
	}
	for _, d := range perfDefs {
		for _, p := range j.Pairs {
			cells = append(cells, matrixCell{defense: d, pair: pairOf(p)})
		}
	}
	return cells
}

// runMatrixLeg runs matrix cell i: an attack cell yields the attacker's
// bit-recovery accuracy, a perf cell the pair's cycles under the defense.
func runMatrixLeg(j Job, i int, pool *machine.Pool, opts Options) ([]any, error) {
	c := matrixCells(j)[i]
	if c.attack != "" {
		start := opts.legStart()
		cfg := machineConfig(cache.SecOff, 1, opts, 0)
		cfg.Defense = c.defense
		acc, err := matrixAttackByName(c.attack).run(cfg, j.AttackBits, j.Seed)
		if err != nil {
			return nil, err
		}
		opts.finishAttackLeg("matrix/"+c.defense+"/"+c.attack, start)
		return []any{c.defense, c.column(), strconv.FormatFloat(acc, 'g', -1, 64)}, nil
	}
	cycles, err := runDefensePair(pool, c.pair, c.defense, "matrix-"+c.defense, opts)
	return []any{c.defense, c.column(), cycles}, err
}

// reduceMatrix renders the grid with one row per requested defense: a
// leaked-bits column per attack (the binary-channel capacity of the
// attacker's recovery, 0 = defended) and a normalized-slowdown column per
// workload pair (against the "none" cells).
func reduceMatrix(j Job, rows [][]string) (*stats.Table, error) {
	cells := matrixCells(j)
	vals := make([]float64, len(cells))
	for i, c := range cells {
		row := rows[i]
		if row[0] != c.defense || row[1] != c.column() {
			return nil, fmt.Errorf("harness: matrix leg %d is %s/%s, want %s/%s", i, row[0], row[1], c.defense, c.column())
		}
		if c.attack != "" {
			acc, err := strconv.ParseFloat(row[2], 64)
			if err != nil {
				return nil, fmt.Errorf("harness: matrix leg %d accuracy: %w", i, err)
			}
			vals[i] = acc
			continue
		}
		cycles, err := rawUint(row[2])
		if err != nil {
			return nil, err
		}
		vals[i] = float64(cycles)
	}

	header := []string{"defense"}
	for _, a := range j.Attacks {
		header = append(header, "bits-"+a)
	}
	for _, p := range j.Pairs {
		header = append(header, "slowdown-"+p)
	}
	tab := stats.NewTable(header...)

	perfDefs := perfDefenses(j)
	perfBase := len(j.Defenses) * len(j.Attacks)
	perf := func(di, pi int) float64 { return vals[perfBase+di*len(j.Pairs)+pi] }
	none := slices.Index(perfDefs, defense.None)
	for di, d := range j.Defenses {
		row := make([]any, 0, len(header))
		row = append(row, d)
		for ai := range j.Attacks {
			row = append(row, stats.BinaryChannelBits(j.AttackBits, vals[di*len(j.Attacks)+ai]))
		}
		pdi := slices.Index(perfDefs, d)
		for pi, p := range j.Pairs {
			base := perf(none, pi)
			if base == 0 {
				return nil, fmt.Errorf("harness: matrix baseline run of %s produced zero cycles", p)
			}
			row = append(row, perf(pdi, pi)/base)
		}
		tab.Add(row...)
	}
	return tab, nil
}
