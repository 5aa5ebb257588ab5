package timecache

// One benchmark per table and figure of the paper's evaluation. Each bench
// runs the corresponding experiment at a reduced (but calibrated)
// instruction budget and reports the headline quantity through
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates the paper's
// numbers alongside the runtime cost of producing them. The `reproduce`
// command runs the same experiments at full scale with paper-side-by-side
// tables.

import (
	"fmt"
	"testing"

	"timecache/internal/attack"
	"timecache/internal/defense"
	"timecache/internal/harness"
	"timecache/internal/machine"
	"timecache/internal/replacement"
	"timecache/internal/stats"
)

// benchOpts trades statistical tightness for bench runtime.
func benchOpts() harness.Options {
	return harness.Options{InstrsPerProc: 100_000, WarmupInstrs: 150_000}
}

// column parses one numeric column of a rendered table.
func column(tb testing.TB, tab *stats.Table, col int) []float64 {
	out := make([]float64, len(tab.Rows))
	for i := range tab.Rows {
		out[i] = num(tb, tab, i, col)
	}
	return out
}

// BenchmarkTableIISpec reproduces Fig. 7, Fig. 8 and the SPEC half of
// Table II from one run of the 24 single-core SPEC pairs: the geomean
// overhead of normalized execution time (paper: 1.13%), the delayed-access
// MPKI per cache level, and the average baseline and TimeCache LLC MPKI
// (paper averages: 7.26 and 7.51).
func BenchmarkTableIISpec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := runJob(b, harness.Job{Experiment: harness.ExpTableII}, benchOpts())
		b.ReportMetric(stats.OverheadPct(stats.GeoMean(column(b, tab, 1))), "overhead-%")
		b.ReportMetric(stats.Mean(column(b, tab, 2)), "MPKI-base")
		b.ReportMetric(stats.Mean(column(b, tab, 3)), "MPKI-timecache")
		b.ReportMetric(stats.Mean(column(b, tab, 4)), "L1I-faMPKI")
		b.ReportMetric(stats.Mean(column(b, tab, 5)), "L1D-faMPKI")
		b.ReportMetric(stats.Mean(column(b, tab, 6)), "LLC-faMPKI")
	}
}

// BenchmarkFig9Parsec reproduces Fig. 9a and 9b: PARSEC 2-thread 2-core
// normalized execution time (paper geomean: 0.8% overhead) and
// delayed-access MPKI per cache. With threads pinned to separate cores, the
// L1 components are structurally zero and all first accesses land at the
// LLC.
func BenchmarkFig9Parsec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := runJob(b, harness.Job{Experiment: harness.ExpParsec}, benchOpts())
		b.ReportMetric(stats.OverheadPct(stats.GeoMean(column(b, tab, 1))), "overhead-%")
		b.ReportMetric(stats.Mean(column(b, tab, 4))+stats.Mean(column(b, tab, 5)), "L1-faMPKI")
		b.ReportMetric(stats.Mean(column(b, tab, 6)), "LLC-faMPKI")
	}
}

// BenchmarkFig10LLCSensitivity reproduces Fig. 10: geomean overhead versus
// LLC size (scaled sweep: at this simulator's budgets eviction pressure
// appears at proportionally smaller caches; the paper's 1B-instruction
// runs show the same decreasing shape at 2/4/8 MB).
func BenchmarkFig10LLCSensitivity(b *testing.B) {
	sizes := []int{512 << 10, 1 << 20, 2 << 20}
	for i := 0; i < b.N; i++ {
		tab := runJob(b, harness.Job{Experiment: harness.ExpLLCSweep, LLCSizes: sizes}, benchOpts())
		for r, size := range sizes {
			b.ReportMetric(num(b, tab, r, 2), byteLabel(size)+"-overhead-%")
		}
	}
}

// BenchmarkMicrobenchmarkAttack reproduces §VI-A1: attacker hits on the
// 256-line shared array, baseline versus TimeCache (paper: all vs zero).
func BenchmarkMicrobenchmarkAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, err := attack.RunMicrobenchmark(machine.Config{Defense: defense.None})
		if err != nil {
			b.Fatal(err)
		}
		def, err := attack.RunMicrobenchmark(machine.Config{Defense: defense.TimeCache})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(base.Hits), "baseline-hits")
		b.ReportMetric(float64(def.Hits), "timecache-hits")
	}
}

// BenchmarkRSAAttack reproduces §VI-A2: fraction of RSA key bits recovered
// by flush+reload (paper: attack succeeds on baseline, fully blocked by
// the defense).
func BenchmarkRSAAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, err := attack.RunRSA(machine.Config{Defense: defense.None}, 64, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		def, err := attack.RunRSA(machine.Config{Defense: defense.TimeCache}, 64, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(base.Accuracy*100, "baseline-key-%")
		b.ReportMetric(def.Accuracy*100, "timecache-key-%")
		b.ReportMetric(float64(def.Hits), "timecache-hits")
	}
}

// BenchmarkSbitSaveRestore reproduces §VI-D: the context-switch s-bit
// bookkeeping share of execution time, and its decay as the scheduler
// slice grows toward realistic lengths (paper: ~0.02%).
func BenchmarkSbitSaveRestore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := runJob(b, harness.Job{Experiment: harness.ExpBookkeeping, SliceCycles: []uint64{100_000, 800_000}}, benchOpts())
		b.ReportMetric(num(b, tab, 0, 1), "short-slice-%")
		b.ReportMetric(num(b, tab, len(tab.Rows)-1, 1), "long-slice-%")
		costs := harness.SbitCost(benchOpts())
		b.ReportMetric(float64(costs.DMACyclesPerSwitch), "DMA-cycles/switch")
	}
}

// BenchmarkRolloverOverhead reproduces §VI-C: running with a deliberately
// tiny timestamp (12 bits rolls over every 4096 cycles) forces constant
// rollover resets; correctness holds and the cost is extra first-access
// misses relative to the 32-bit configuration.
func BenchmarkRolloverOverhead(b *testing.B) {
	run := func(bits uint) uint64 {
		k := newKernel(machine.Config{Defense: defense.TimeCache, TimestampBits: bits})
		for i := 0; i < 2; i++ {
			if _, err := spawnSpec(k, "gobmk", 0, 60_000, uint64(1001+i*1001)); err != nil {
				b.Fatal(err)
			}
		}
		k.Run(1 << 62)
		if !k.AllExited() {
			b.Fatal("did not finish")
		}
		return firstAccesses(k)
	}
	for i := 0; i < b.N; i++ {
		wide := run(32)
		narrow := run(12)
		b.ReportMetric(float64(wide), "firstaccess-32bit")
		b.ReportMetric(float64(narrow), "firstaccess-12bit")
		if narrow < wide {
			b.Fatal("rollover resets must not reduce first accesses")
		}
	}
}

// BenchmarkOtherAttacks reproduces §VII: accuracy of each non-reuse attack
// under TimeCache, with and without its designated mitigation.
func BenchmarkOtherAttacks(b *testing.B) {
	tc := machine.Config{Defense: defense.TimeCache}
	ctFlush := tc
	ctFlush.ConstantTimeFlush = true
	lruCfg := tc
	lruCfg.Policy = replacement.LRU
	for i := 0; i < b.N; i++ {
		ff, err := attack.RunFlushFlush(tc, 32, 5)
		if err != nil {
			b.Fatal(err)
		}
		ffFixed, err := attack.RunFlushFlush(ctFlush, 32, 5)
		if err != nil {
			b.Fatal(err)
		}
		coh, err := attack.RunCoherence(tc, 32, 5)
		if err != nil {
			b.Fatal(err)
		}
		lru, err := attack.RunLRU(lruCfg, 32, 5)
		if err != nil {
			b.Fatal(err)
		}
		pp, err := attack.RunPrimeProbe(tc, 32, 5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ff.Accuracy*100, "flushflush-%")
		b.ReportMetric(ffFixed.Accuracy*100, "flushflush-ctflush-%")
		b.ReportMetric(coh.Accuracy*100, "coherence-%")
		b.ReportMetric(lru.Accuracy*100, "lru-%")
		b.ReportMetric(pp.Accuracy*100, "primeprobe-%")
	}
}

// BenchmarkDefenseAblation compares TimeCache's overhead with every other
// registered defense on 2Xgobmk.
func BenchmarkDefenseAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := runJob(b, harness.Job{Experiment: harness.ExpAblation}, benchOpts())
		for r, row := range tab.Rows {
			b.ReportMetric(stats.OverheadPct(num(b, tab, r, 1)), row[0]+"-overhead-%")
		}
	}
}

// BenchmarkGateLevelComparator measures the cost of simulating the
// context-switch comparison through the gate-level transposed-SRAM model
// relative to the functional fast path (results are identical; only
// simulator time differs).
func BenchmarkGateLevelComparator(b *testing.B) {
	opts := harness.Options{InstrsPerProc: 40_000, WarmupInstrs: 60_000, GateLevel: true}
	for i := 0; i < b.N; i++ {
		runJob(b, harness.Job{Experiment: harness.ExpTableII, Pairs: []string{"2Xspecrand"}}, opts)
	}
}

func byteLabel(n int) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%dMB", n>>20)
	}
	return fmt.Sprintf("%dKB", n>>10)
}

// BenchmarkLimitedPointerTracker compares the paper's full per-context
// s-bit map against the §VI-C limited-pointer area optimization on a
// 4-context machine (2 cores x 2 SMT threads): pointer overflow converts
// area savings into extra first-access misses.
func BenchmarkLimitedPointerTracker(b *testing.B) {
	run := func(maxSharers int) uint64 {
		k := newKernel(machine.Config{Defense: defense.TimeCache, Cores: 2, MaxSharers: maxSharers})
		for i := 0; i < 2; i++ {
			if _, err := spawnSpec(k, "gobmk", i, 80_000, uint64(1001+i*1001)); err != nil {
				b.Fatal(err)
			}
		}
		k.Run(1 << 62)
		if !k.AllExited() {
			b.Fatal("did not finish")
		}
		return firstAccesses(k)
	}
	for i := 0; i < b.N; i++ {
		full := run(0)
		limited := run(1)
		b.ReportMetric(float64(full), "fullmap-firstaccess")
		b.ReportMetric(float64(limited), "limited1-firstaccess")
		if limited < full {
			b.Fatal("limited pointers must not reduce first accesses")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: modeled
// instructions per second of wall-clock for a representative workload pair
// under TimeCache (the figure that bounds how far experiment budgets can
// be raised).
func BenchmarkSimulatorThroughput(b *testing.B) {
	const instrs = 200_000
	for i := 0; i < b.N; i++ {
		k := newKernel(machine.Config{Defense: defense.TimeCache})
		for j := 0; j < 2; j++ {
			if _, err := spawnSpec(k, "gobmk", 0, instrs, uint64(1001+j*1001)); err != nil {
				b.Fatal(err)
			}
		}
		k.Run(1 << 62)
		if !k.AllExited() {
			b.Fatal("did not finish")
		}
	}
	b.ReportMetric(float64(2*instrs*b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}
