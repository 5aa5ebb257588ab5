// Command timecache-sim runs a mix of workload models on a simulated
// machine and prints per-cache statistics, normalized against an optional
// undefended run.
//
// Usage:
//
//	timecache-sim -defense timecache -workloads lbm,wrf -instrs 300000
//	timecache-sim -defense none -workloads 2Xperlbench
//	timecache-sim -compare -workloads 2Xlbm   # run none AND timecache
//	timecache-sim -compare -defense clepsydra -workloads 2Xnamd
//
// -defense takes any defense registry kind (internal/defense): none,
// timecache, ftm, dawg-lite, flush-on-switch, clepsydra, fase.
//
// Sweeps (LLC sizes, the defense×attack matrix, ...) are experiment jobs:
// run them with cmd/reproduce (-only llc-sweep, -only matrix) or submit
// them to cmd/timecache-serve.
//
// Telemetry outputs (any may be combined; see internal/telemetry):
//
//	timecache-sim -metrics-out m.csv -sample-every 5000
//	timecache-sim -trace-json t.json    # load in Perfetto
//	timecache-sim -manifest run.json -hist
//
// In -compare mode the telemetry outputs come from the -defense leg.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"timecache/internal/defense"
	"timecache/internal/kernel"
	"timecache/internal/machine"
	"timecache/internal/stats"
	"timecache/internal/telemetry"
	"timecache/internal/workload"
)

func main() {
	var (
		kind      = flag.String("defense", defense.TimeCache, "defense registry kind: "+strings.Join(defense.Kinds(), " | "))
		workloads = flag.String("workloads", "2Xlbm", "comma-separated SPEC profile names, or 2X<name> for a pair")
		instrs    = flag.Uint64("instrs", 300_000, "instructions per process")
		llc       = flag.Int("llc", 2<<20, "LLC size in bytes")
		cores     = flag.Int("cores", 1, "number of cores")
		compare   = flag.Bool("compare", false, "run none and -defense and report normalized time")
		gate      = flag.Bool("gatelevel", false, "use the gate-level bit-serial comparator")
		cohCheck  = flag.Bool("coherence-check", false, "cross-check the LLC sharer directory against brute-force L1 probes on every coherence event (debug; slow)")
		timeout   = flag.Duration("timeout", 0, "overall deadline (e.g. 30s); on expiry the run stops cleanly mid-simulation")

		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this path")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this path at exit")

		metricsOut  = flag.String("metrics-out", "", "write interval-metrics CSV to this path")
		histOut     = flag.String("hist-out", "", "write latency-histogram CSV to this path")
		traceJSON   = flag.String("trace-json", "", "write Chrome trace-event JSON (Perfetto-loadable) to this path")
		manifest    = flag.String("manifest", "", "write a JSON run manifest to this path")
		sampleEvery = flag.Uint64("sample-every", 0, "interval sampler period in instructions (default 10000)")
		traceAcc    = flag.Bool("trace-accesses", false, "add per-access instant events to the trace (verbose)")
		showHist    = flag.Bool("hist", false, "print latency histograms after the run")
	)
	flag.Parse()
	// StaticOf rejects anything but a registry kind, naming the valid ones.
	if _, err := defense.StaticOf(*kind); err != nil {
		fatal(err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	tcfg := telemetry.Config{
		SampleEvery:   *sampleEvery,
		TraceAccesses: *traceAcc,
		MetricsCSV:    *metricsOut,
		HistogramCSV:  *histOut,
		TraceJSON:     *traceJSON,
		ManifestJSON:  *manifest,
	}
	telemetryOn := tcfg != (telemetry.Config{}) || *showHist

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := machine.Config{Defense: *kind, LLCSize: *llc, Cores: *cores, GateLevel: *gate, CoherenceCheck: *cohCheck}
	if *compare {
		if err := runCompare(ctx, cfg, *workloads, *instrs, tcfg, telemetryOn, *showHist); err != nil {
			fatalCtx(err, *timeout)
		}
		return
	}
	cycles, k, col, err := runOnce(ctx, cfg, *workloads, *instrs, tcfg, telemetryOn)
	if err != nil {
		fatalCtx(err, *timeout)
	}
	printStats(cfg.Defense, cycles, k)
	reportTelemetry(col, *showHist)
}

// expand turns "2Xlbm" into ["lbm","lbm"] and passes other names through.
func expand(list string) []string {
	var out []string
	for _, w := range strings.Split(list, ",") {
		w = strings.TrimSpace(w)
		if w == "" {
			continue
		}
		if strings.HasPrefix(w, "2X") {
			name := strings.TrimPrefix(w, "2X")
			out = append(out, name, name)
		} else {
			out = append(out, w)
		}
	}
	return out
}

// runOnce runs the workloads on a machine built from cfg and returns the
// cycle count and the machine's kernel for its counters.
func runOnce(ctx context.Context, cfg machine.Config, workloads string, instrs uint64, tcfg telemetry.Config, withTelemetry bool) (uint64, *kernel.Kernel, *telemetry.Collector, error) {
	names := expand(workloads)
	if len(names) == 0 {
		return 0, nil, nil, fmt.Errorf("no workloads given")
	}
	m := machine.New(cfg)
	k := m.Kernel()
	var col *telemetry.Collector
	if withTelemetry {
		col = m.AttachTelemetry(tcfg)
		col.SetMeta("workloads", workloads)
		col.SetMeta("instrs_per_proc", instrs)
	}
	cores := m.Hierarchy().Config().Cores
	for i, name := range names {
		prof, err := workload.Spec(name)
		if err != nil {
			return 0, nil, nil, err
		}
		opts := workload.SpawnOptions{Core: i % cores, Instrs: instrs, Seed: uint64(1001 + i*1001)}
		if _, _, err := workload.Spawn(k, prof, opts); err != nil {
			return 0, nil, nil, err
		}
	}
	cycles := k.RunCtx(ctx, 1<<62)
	if err := ctx.Err(); err != nil {
		return 0, nil, nil, fmt.Errorf("stopped after %d cycles: %w", cycles, err)
	}
	if !k.AllExited() {
		return 0, nil, nil, fmt.Errorf("workloads did not finish")
	}
	if col != nil {
		if err := col.Finish(); err != nil {
			return 0, nil, nil, err
		}
	}
	return cycles, k, col, nil
}

// runCompare runs the workloads undefended and under cfg.Defense and
// reports the defended run normalized to the undefended one.
func runCompare(ctx context.Context, cfg machine.Config, workloads string, instrs uint64, tcfg telemetry.Config, withTelemetry, showHist bool) error {
	base := cfg
	base.Defense = defense.None
	bCycles, _, _, err := runOnce(ctx, base, workloads, instrs, telemetry.Config{}, false)
	if err != nil {
		return err
	}
	dCycles, k, col, err := runOnce(ctx, cfg, workloads, instrs, tcfg, withTelemetry)
	if err != nil {
		return err
	}
	printStats(cfg.Defense, dCycles, k)
	reportTelemetry(col, showHist)
	norm := float64(dCycles) / float64(bCycles)
	fmt.Println()
	fmt.Printf("%-16s: %d\n", defense.None+" cycles", bCycles)
	fmt.Printf("%-16s: %d\n", cfg.Defense+" cycles", dCycles)
	fmt.Printf("%-16s: %.4f (%.2f%% overhead, cold start included)\n",
		"normalized time", norm, (norm-1)*100)
	return nil
}

// reportTelemetry prints the interval-series sparklines, a one-line summary
// of what was written, and (with -hist) the latency histograms.
func reportTelemetry(col *telemetry.Collector, showHist bool) {
	if col == nil {
		return
	}
	fmt.Println()
	fmt.Print(col.Sampler().Render())
	if showHist {
		fmt.Println()
		fmt.Print(col.Histograms().Render())
	}
	fmt.Printf("\ntelemetry: %d samples, %d accesses observed, %d trace events\n",
		len(col.Sampler().Samples()), col.Histograms().Total(), col.Trace().Len())
}

func printStats(kind string, cycles uint64, k *kernel.Kernel) {
	fmt.Printf("defense=%s cycles=%d switches=%d syscalls=%d bookkeeping=%d cycles\n\n",
		kind, cycles, k.Stats.ContextSwitches, k.Stats.Syscalls, k.Stats.BookkeepingCycles)
	tb := stats.NewTable("cache", "accesses", "hits", "misses", "first-access", "evictions")
	for _, c := range k.Hierarchy().Caches() {
		tb.Add(c.Name(), c.Stats.Accesses, c.Stats.Hits, c.Stats.Misses, c.Stats.FirstAccess, c.Stats.Evictions)
	}
	fmt.Print(tb.String())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "timecache-sim:", err)
	os.Exit(1)
}

// fatalCtx distinguishes a -timeout expiry (expected, reported as a clean
// partial-results stop) from a real failure.
func fatalCtx(err error, timeout time.Duration) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "timecache-sim: -timeout %s expired: %v; partial results discarded\n", timeout, err)
		os.Exit(1)
	}
	fatal(err)
}
