// Command reproduce regenerates every table and figure of the paper's
// evaluation: Fig. 7 (SPEC normalized time), Fig. 8 (delayed-access MPKI
// per level), Fig. 9a/9b (PARSEC), Table II, Fig. 10 (LLC sensitivity),
// the §VI-A security experiments, the §VI-D bookkeeping costs, and the
// defense ablation. Results are printed as aligned tables and ASCII charts
// and written as CSV files into -out.
//
// Usage:
//
//	reproduce                  # everything at default scale (~minutes)
//	reproduce -quick           # reduced instruction budgets (~1 minute)
//	reproduce -only table2     # one experiment: fig7|fig8|fig9|table2|
//	                           #   fig10|security|bookkeeping|ablation|matrix
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"timecache"
	"timecache/internal/harness"
	"timecache/internal/stats"
	"timecache/internal/telemetry"
	"timecache/internal/textplot"
)

func main() {
	var (
		out     = flag.String("out", "results", "directory for CSV output")
		quick   = flag.Bool("quick", false, "reduced instruction budgets")
		only    = flag.String("only", "", "run a single experiment")
		instrs  = flag.Uint64("instrs", 0, "override measured instructions per process")
		warmup  = flag.Uint64("warmup", 0, "override warmup instructions per process")
		jobs    = flag.Int("j", runtime.GOMAXPROCS(0), "concurrent simulation runs (-j1 = sequential); output is byte-identical at any -j")
		timeout = flag.Duration("timeout", 0, "overall deadline (e.g. 90s); on expiry the sweep stops cleanly and completed experiments keep their CSVs")

		cohCheck = flag.Bool("coherence-check", false, "cross-check the LLC sharer directory against brute-force L1 probes on every coherence event (debug; slow)")

		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this path")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this path at exit")

		resources = flag.String("resources", "", "write aggregate resource counters (cycles, instructions, cache accesses, switches, s-bit delayed loads) as JSON to this path at exit")

		withTelemetry = flag.Bool("telemetry", false, "attach telemetry to every run: interval metrics + run manifests next to the CSVs in -out")
		metricsOut    = flag.String("metrics-out", "", "interval-metrics CSV base path (suffixed per workload/mode)")
		traceJSON     = flag.String("trace-json", "", "Chrome trace-event JSON base path (suffixed per workload/mode)")
		manifest      = flag.String("manifest", "", "run-manifest JSON base path (suffixed per workload/mode)")
		sampleEvery   = flag.Uint64("sample-every", 0, "interval sampler period in instructions (default 10000)")
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

	opts := timecache.ExperimentOptions{InstrsPerProc: 300_000, WarmupInstrs: 250_000}
	if *quick {
		opts = timecache.ExperimentOptions{InstrsPerProc: 100_000, WarmupInstrs: 150_000}
	}
	if *instrs != 0 {
		opts.InstrsPerProc = *instrs
	}
	if *warmup != 0 {
		opts.WarmupInstrs = *warmup
	}
	opts.Jobs = *jobs
	opts.CoherenceCheck = *cohCheck
	var account *harness.ResourceAccount
	if *resources != "" {
		account = &harness.ResourceAccount{}
		opts.Account = account
	}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opts.Ctx = ctx
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	if *withTelemetry {
		if *metricsOut == "" {
			*metricsOut = filepath.Join(*out, "metrics.csv")
		}
		if *manifest == "" {
			*manifest = filepath.Join(*out, "manifest.json")
		}
	}
	if *metricsOut != "" || *traceJSON != "" || *manifest != "" {
		opts.Telemetry = &telemetry.Config{
			SampleEvery:  *sampleEvery,
			MetricsCSV:   *metricsOut,
			TraceJSON:    *traceJSON,
			ManifestJSON: *manifest,
		}
	}

	experiments := []struct {
		name string
		run  func() error
	}{
		{"table2", func() error { return specExperiments(opts, *out) }},
		{"fig9", func() error { return parsecExperiments(opts, *out) }},
		{"fig10", func() error { return llcSensitivity(opts, *out) }},
		{"security", func() error { return security(*out) }},
		{"bookkeeping", func() error { return bookkeeping(opts, *out) }},
		{"ablation", func() error { return ablation(opts, *out) }},
		{"matrix", func() error { return matrix(opts, *out) }},
	}
	alias := map[string]string{"fig7": "table2", "fig8": "table2", "fig9a": "fig9", "fig9b": "fig9"}
	if a, ok := alias[*only]; ok {
		*only = a
	}
	ran := false
	var completed []string
	for _, e := range experiments {
		if *only != "" && e.name != *only {
			continue
		}
		ran = true
		if err := e.run(); err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				fmt.Printf("reproduce: -timeout %s expired during %s; stopping.\n", *timeout, e.name)
				if len(completed) > 0 {
					fmt.Printf("reproduce: partial results: %v completed and written to %s/\n", completed, *out)
				} else {
					fmt.Printf("reproduce: partial results: no experiment completed; nothing written\n")
				}
				os.Exit(1)
			}
			fatal(fmt.Errorf("%s: %w", e.name, err))
		}
		completed = append(completed, e.name)
	}
	if !ran {
		fatal(fmt.Errorf("unknown experiment %q", *only))
	}
	if account != nil {
		// The snapshot uses the same JSON schema as the job service's
		// result "resources" block, so CLI and HTTP runs compare directly.
		buf, err := json.MarshalIndent(account.Snapshot(), "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*resources, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("reproduce: resource counters written to %s\n", *resources)
	}
}

// specExperiments covers Fig. 7, Fig. 8, and the SPEC half of Table II.
func specExperiments(opts timecache.ExperimentOptions, out string) error {
	rows, err := timecache.ReproduceTableII(opts)
	if err != nil {
		return err
	}
	tab := stats.NewTable("workload", "normalized", "paper", "mpki-base", "paper", "mpki-tc", "paper")
	fig7 := textplot.Chart{Title: "Fig. 7: normalized execution time (single core, 2 processes)", Baseline: 1.0}
	fig8 := textplot.Grouped{Title: "Fig. 8: delayed-access MPKI per cache level", Series: []string{"L1I", "L1D", "LLC"}}
	var norms, papers []float64
	for _, r := range rows {
		tab.Add(r.Workload, r.Normalized, r.PaperNormalized, r.MPKIBaseline, r.PaperMPKIBase, r.MPKITimeCache, r.PaperMPKITC)
		fig7.Add(r.Workload, r.Normalized)
		fig8.Add(r.Workload, r.FirstAccessL1I, r.FirstAccessL1D, r.FirstAccessLLC)
		norms = append(norms, r.Normalized)
		if r.PaperNormalized > 0 {
			papers = append(papers, r.PaperNormalized)
		}
	}
	fmt.Println(fig7.String())
	fmt.Println(fig8.String())
	fmt.Println("Table II (SPEC2006):")
	fmt.Println(tab.String())
	fmt.Printf("geomean normalized: measured %.4f (%.2f%% overhead), paper %.4f (1.13%%)\n\n",
		stats.GeoMean(norms), stats.OverheadPct(stats.GeoMean(norms)), stats.GeoMean(papers))
	return writeCSV(out, "table2_spec.csv", tab)
}

// parsecExperiments covers Fig. 9a/9b and the PARSEC rows of Table II.
func parsecExperiments(opts timecache.ExperimentOptions, out string) error {
	rows, err := timecache.ReproduceParsec(opts)
	if err != nil {
		return err
	}
	tab := stats.NewTable("workload", "normalized", "paper", "mpki-base", "paper", "mpki-tc", "paper")
	fig9a := textplot.Chart{Title: "Fig. 9a: PARSEC normalized execution time (2 threads, 2 cores)", Baseline: 1.0}
	fig9b := textplot.Grouped{Title: "Fig. 9b: PARSEC delayed-access MPKI per cache", Series: []string{"L1I", "L1D", "LLC"}}
	var norms []float64
	for _, r := range rows {
		tab.Add(r.Workload, r.Normalized, r.PaperNormalized, r.MPKIBaseline, r.PaperMPKIBase, r.MPKITimeCache, r.PaperMPKITC)
		fig9a.Add(r.Workload, r.Normalized)
		fig9b.Add(r.Workload, r.FirstAccessL1I, r.FirstAccessL1D, r.FirstAccessLLC)
		norms = append(norms, r.Normalized)
	}
	fmt.Println(fig9a.String())
	fmt.Println(fig9b.String())
	fmt.Println("Table II (PARSEC):")
	fmt.Println(tab.String())
	fmt.Printf("geomean normalized: measured %.4f (%.2f%% overhead), paper ~1.008 (0.8%%)\n\n",
		stats.GeoMean(norms), stats.OverheadPct(stats.GeoMean(norms)))
	return writeCSV(out, "table2_parsec.csv", tab)
}

// llcSensitivity covers Fig. 10.
func llcSensitivity(opts timecache.ExperimentOptions, out string) error {
	rows, err := timecache.ReproduceLLCSensitivity(nil, opts)
	if err != nil {
		return err
	}
	tab := stats.NewTable("llc", "geomean-normalized", "overhead-pct")
	chart := textplot.Chart{Title: "Fig. 10: overhead vs LLC size (scaled sweep; paper: 1.13%/0.4%/0.1% at 2/4/8MB)", Format: "%.3f%%"}
	for _, r := range rows {
		label := fmt.Sprintf("%dKB", r.LLCSizeBytes>>10)
		if r.LLCSizeBytes >= 1<<20 {
			label = fmt.Sprintf("%dMB", r.LLCSizeBytes>>20)
		}
		tab.Add(label, r.GeoMeanNorm, r.OverheadPct)
		chart.Add(label, r.OverheadPct)
	}
	fmt.Println(chart.String())
	fmt.Println(tab.String())
	fmt.Println()
	return writeCSV(out, "fig10_llc_sensitivity.csv", tab)
}

// security covers §VI-A: the microbenchmark and the RSA attack.
func security(out string) error {
	tab := stats.NewTable("experiment", "mode", "result")
	for _, mode := range []timecache.Mode{timecache.Baseline, timecache.TimeCache} {
		mb, err := timecache.RunMicrobenchmark(mode)
		if err != nil {
			return err
		}
		tab.Add("microbenchmark (§VI-A1)", mode.String(),
			fmt.Sprintf("%d/%d lines hit", mb.Hits, mb.Lines))
	}
	for _, mode := range []timecache.Mode{timecache.Baseline, timecache.TimeCache} {
		rsa, err := timecache.RunRSAAttack(mode, 64, 12345)
		if err != nil {
			return err
		}
		tab.Add("RSA flush+reload (§VI-A2)", mode.String(),
			fmt.Sprintf("%.0f%% of key bits, %d hits, victim correct=%v",
				rsa.Accuracy*100, rsa.Hits, rsa.VictimCorrect))
	}
	fmt.Println("Security evaluation (§VI-A):")
	fmt.Println(tab.String())
	fmt.Println()
	return writeCSV(out, "security.csv", tab)
}

// bookkeeping covers §VI-D.
func bookkeeping(opts timecache.ExperimentOptions, out string) error {
	costs := timecache.ComputeSbitCosts(opts)
	fmt.Println("§VI-D s-bit save/restore costs:")
	fmt.Printf("  L1 column: %d 64B transfers; LLC column: %d transfers\n", costs.L1Transfers, costs.LLCTransfers)
	fmt.Printf("  per switch: DMA %d cycles (1.08us at 2GHz), copy %d cycles\n",
		costs.DMACyclesPerSwitch, costs.CopyCyclesPerSwitch)
	rows, err := timecache.ReproduceBookkeepingScaling(nil, opts)
	if err != nil {
		return err
	}
	tab := stats.NewTable("slice-cycles", "bookkeeping-pct", "total-overhead-pct")
	for _, r := range rows {
		tab.Add(fmt.Sprintf("%d", r.SliceCycles), r.BookkeepingPct, r.OverheadPct)
	}
	fmt.Println(tab.String())
	fmt.Println("  (at Linux-scale 1-10ms slices the share converges on the paper's ~0.02%)")
	fmt.Println()
	return writeCSV(out, "bookkeeping.csv", tab)
}

// ablation compares defenses.
func ablation(opts timecache.ExperimentOptions, out string) error {
	rows, err := timecache.ReproduceDefenseAblation("2Xgobmk", opts)
	if err != nil {
		return err
	}
	tab := stats.NewTable("defense", "normalized-time")
	chart := textplot.Chart{Title: "Defense ablation on 2Xgobmk", Baseline: 1.0}
	for _, r := range rows {
		tab.Add(r.Defense, r.Normalized)
		chart.Add(r.Defense, r.Normalized)
	}
	fmt.Println(chart.String())
	fmt.Println(tab.String())
	fmt.Println()
	return writeCSV(out, "ablation.csv", tab)
}

// matrix runs the defense×attack evaluation grid: every registered defense
// against every attack in the corpus (leaked bits per cell) plus its
// normalized slowdown on the default workload pair.
func matrix(opts timecache.ExperimentOptions, out string) error {
	tab, err := harness.RunJob(harness.Job{Experiment: harness.ExpMatrix}, harness.Options{
		InstrsPerProc:  opts.InstrsPerProc,
		WarmupInstrs:   opts.WarmupInstrs,
		CoherenceCheck: opts.CoherenceCheck,
		Jobs:           opts.Jobs,
		Ctx:            opts.Ctx,
		Account:        opts.Account,
	})
	if err != nil {
		return err
	}
	fmt.Println("Defense × attack matrix (leaked bits per attack; slowdown vs none):")
	fmt.Println(tab.String())
	fmt.Println()
	return writeCSV(out, "matrix.csv", tab)
}

func writeCSV(dir, name string, tab *stats.Table) error {
	if err := os.WriteFile(filepath.Join(dir, name), []byte(tab.CSV()), 0o644); err != nil {
		return err
	}
	// Keep a markdown rendering next to each CSV so results paste straight
	// into reports.
	md := filepath.Join(dir, name[:len(name)-len(filepath.Ext(name))]+".md")
	return os.WriteFile(md, []byte(tab.Markdown()), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reproduce:", err)
	os.Exit(1)
}
