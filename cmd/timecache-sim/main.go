// Command timecache-sim runs a mix of workload models on a simulated
// machine and prints per-cache statistics, normalized against an optional
// baseline run.
//
// Usage:
//
//	timecache-sim -mode timecache -workloads lbm,wrf -instrs 300000
//	timecache-sim -mode baseline  -workloads 2Xperlbench
//	timecache-sim -compare -workloads 2Xlbm   # run baseline AND timecache
//
// Sweeps (LLC sizes, the defense×attack matrix, ...) are experiment jobs:
// run them with cmd/reproduce (-only llc-sweep, -only matrix) or submit
// them to cmd/timecache-serve.
//
// Telemetry outputs (any may be combined; see internal/telemetry):
//
//	timecache-sim -mode timecache -metrics-out m.csv -sample-every 5000
//	timecache-sim -mode timecache -trace-json t.json    # load in Perfetto
//	timecache-sim -mode timecache -manifest run.json -hist
//
// In -compare mode the telemetry outputs come from the timecache leg.
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

	"timecache"
	"timecache/internal/stats"
	"timecache/internal/telemetry"
)

func main() {
	var (
		modeFlag  = flag.String("mode", "timecache", "defense mode: baseline | timecache | ftm")
		workloads = flag.String("workloads", "2Xlbm", "comma-separated SPEC profile names, or 2X<name> for a pair")
		instrs    = flag.Uint64("instrs", 300_000, "instructions per process")
		llc       = flag.Int("llc", 2<<20, "LLC size in bytes")
		cores     = flag.Int("cores", 1, "number of cores")
		compare   = flag.Bool("compare", false, "run baseline and timecache and report normalized time")
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

	if *compare {
		if err := runCompare(ctx, *workloads, *instrs, *llc, *cores, *gate, *cohCheck, tcfg, telemetryOn, *showHist); err != nil {
			fatalCtx(err, *timeout)
		}
		return
	}
	mode, err := timecache.ParseMode(*modeFlag)
	if err != nil {
		fatal(err)
	}
	cycles, st, col, err := runOnce(ctx, mode, *workloads, *instrs, *llc, *cores, *gate, *cohCheck, tcfg, telemetryOn)
	if err != nil {
		fatalCtx(err, *timeout)
	}
	printStats(mode, cycles, st)
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

func runOnce(ctx context.Context, mode timecache.Mode, workloads string, instrs uint64, llc, cores int, gate, cohCheck bool, tcfg telemetry.Config, withTelemetry bool) (uint64, timecache.Stats, *telemetry.Collector, error) {
	sys, err := timecache.New(timecache.Config{
		Mode: mode, LLCSize: llc, Cores: cores, GateLevel: gate,
		CoherenceCheck: cohCheck,
	})
	if err != nil {
		return 0, timecache.Stats{}, nil, err
	}
	var col *telemetry.Collector
	if withTelemetry {
		col = sys.AttachTelemetry(tcfg)
		col.SetMeta("workloads", workloads)
		col.SetMeta("instrs_per_proc", instrs)
		col.SetMeta("mode", mode.String())
	}
	names := expand(workloads)
	if len(names) == 0 {
		return 0, timecache.Stats{}, nil, fmt.Errorf("no workloads given")
	}
	for i, name := range names {
		if _, err := sys.SpawnSpec(name, i%cores, instrs, uint64(1001+i*1001)); err != nil {
			return 0, timecache.Stats{}, nil, err
		}
	}
	cycles := sys.RunContext(ctx, 1<<62)
	if err := ctx.Err(); err != nil {
		return 0, timecache.Stats{}, nil, fmt.Errorf("stopped after %d cycles: %w", cycles, err)
	}
	if !sys.AllExited() {
		return 0, timecache.Stats{}, nil, fmt.Errorf("workloads did not finish")
	}
	if col != nil {
		if err := col.Finish(); err != nil {
			return 0, timecache.Stats{}, nil, err
		}
	}
	return cycles, sys.Stats(), col, nil
}

func runCompare(ctx context.Context, workloads string, instrs uint64, llc, cores int, gate, cohCheck bool, tcfg telemetry.Config, withTelemetry, showHist bool) error {
	bCycles, _, _, err := runOnce(ctx, timecache.Baseline, workloads, instrs, llc, cores, gate, cohCheck, telemetry.Config{}, false)
	if err != nil {
		return err
	}
	tCycles, st, col, err := runOnce(ctx, timecache.TimeCache, workloads, instrs, llc, cores, gate, cohCheck, tcfg, withTelemetry)
	if err != nil {
		return err
	}
	printStats(timecache.TimeCache, tCycles, st)
	reportTelemetry(col, showHist)
	norm := float64(tCycles) / float64(bCycles)
	fmt.Printf("\nbaseline cycles : %d\n", bCycles)
	fmt.Printf("timecache cycles: %d\n", tCycles)
	fmt.Printf("normalized time : %.4f (%.2f%% overhead, cold start included)\n",
		norm, (norm-1)*100)
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

func printStats(mode timecache.Mode, cycles uint64, st timecache.Stats) {
	fmt.Printf("mode=%s cycles=%d switches=%d syscalls=%d bookkeeping=%d cycles\n\n",
		mode, cycles, st.ContextSwitches, st.Syscalls, st.BookkeepingCycles)
	tb := stats.NewTable("cache", "accesses", "hits", "misses", "first-access", "evictions")
	for _, c := range st.Caches {
		tb.Add(c.Name, c.Accesses, c.Hits, c.Misses, c.FirstAccess, c.Evictions)
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
