// Command reproduce regenerates every table and figure of the paper's
// evaluation: Fig. 7 (SPEC normalized time), Fig. 8 (delayed-access MPKI
// per level), Fig. 9a/9b (PARSEC), Table II, Fig. 10 (LLC sensitivity),
// the §VI-A security experiments, the §VI-D bookkeeping costs, the defense
// ablation, and the defense×attack matrix. Every experiment is a
// harness.Job run through harness.RunJob — the same path the job service
// serves over HTTP — so each CSV written into -out is byte-identical to the
// service's result for that job. Results are also printed as aligned tables
// and ASCII charts.
//
// Usage:
//
//	reproduce                  # everything at default scale (~minutes)
//	reproduce -quick           # reduced instruction budgets (~1 minute)
//	reproduce -only table2     # one experiment: table2|parsec|llc-sweep|
//	                           #   security|bookkeeping|ablation|matrix
//	                           #   (aliases: fig7|fig8|fig9|fig9a|fig9b|fig10)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"

	"timecache/internal/harness"
	"timecache/internal/stats"
	"timecache/internal/telemetry"
	"timecache/internal/textplot"
	"timecache/internal/workload"
)

// experiment is one -only target: the job it runs, the CSV it writes, and
// how its table is printed (with any charts and summaries around it).
type experiment struct {
	job  harness.Job
	csv  string
	show func(w io.Writer, tab *stats.Table, opts harness.Options)
}

// experiments lists every target in run order; the -only name is the job's
// experiment name.
var experiments = []experiment{
	{harness.Job{Experiment: harness.ExpTableII}, "table2_spec.csv", showSpec},
	{harness.Job{Experiment: harness.ExpParsec}, "table2_parsec.csv", showParsec},
	{harness.Job{Experiment: harness.ExpLLCSweep}, "fig10_llc_sensitivity.csv", showLLCSweep},
	{harness.Job{Experiment: harness.ExpSecurity}, "security.csv", titled("Security evaluation (§VI-A):")},
	{harness.Job{Experiment: harness.ExpBookkeeping}, "bookkeeping.csv", showBookkeeping},
	{harness.Job{Experiment: harness.ExpAblation}, "ablation.csv", showAblation},
	{harness.Job{Experiment: harness.ExpMatrix}, "matrix.csv", titled("Defense × attack matrix (leaked bits per attack; slowdown vs none):")},
}

// aliases maps the paper's figure names onto the experiments that draw them.
var aliases = map[string]string{
	"fig7": harness.ExpTableII, "fig8": harness.ExpTableII,
	"fig9": harness.ExpParsec, "fig9a": harness.ExpParsec, "fig9b": harness.ExpParsec,
	"fig10": harness.ExpLLCSweep,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}
}

// run parses args, runs the selected experiments, and prints their tables
// and charts to stdout.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	var (
		out     = fs.String("out", "results", "directory for CSV output")
		quick   = fs.Bool("quick", false, "reduced instruction budgets")
		only    = fs.String("only", "", "run a single experiment")
		instrs  = fs.Uint64("instrs", 0, "override measured instructions per process")
		warmup  = fs.Uint64("warmup", 0, "override warmup instructions per process")
		jobs    = fs.Int("j", runtime.GOMAXPROCS(0), "concurrent simulation runs (-j1 = sequential); output is byte-identical at any -j")
		timeout = fs.Duration("timeout", 0, "overall deadline (e.g. 90s); on expiry the sweep stops cleanly and completed experiments keep their CSVs")

		cohCheck = fs.Bool("coherence-check", false, "cross-check the LLC sharer directory against brute-force L1 probes on every coherence event (debug; slow)")

		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile to this path")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile to this path at exit")

		resources = fs.String("resources", "", "write aggregate resource counters (cycles, instructions, cache accesses, switches, s-bit delayed loads) as JSON to this path at exit")

		withTelemetry = fs.Bool("telemetry", false, "attach telemetry to every run: interval metrics + run manifests next to the CSVs in -out")
		metricsOut    = fs.String("metrics-out", "", "interval-metrics CSV base path (suffixed per machine run: _<experiment>_<leg>_<run>, e.g. metrics_llc-sweep_3_2Xlbm-timecache.csv)")
		traceJSON     = fs.String("trace-json", "", "Chrome trace-event JSON base path (suffixed per machine run: _<experiment>_<leg>_<run>)")
		manifest      = fs.String("manifest", "", "run-manifest JSON base path (suffixed per machine run: _<experiment>_<leg>_<run>, e.g. manifest_table2_0_2Xlbm-baseline.json)")
		sampleEvery   = fs.Uint64("sample-every", 0, "interval sampler period in instructions (default 10000)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			if perr := writeHeapProfile(*memprofile); err == nil {
				err = perr
			}
		}()
	}

	opts := harness.Options{InstrsPerProc: 300_000, WarmupInstrs: 250_000}
	if *quick {
		opts = harness.Options{InstrsPerProc: 100_000, WarmupInstrs: 150_000}
	}
	if *instrs != 0 {
		opts.InstrsPerProc = *instrs
	}
	if *warmup != 0 {
		opts.WarmupInstrs = *warmup
	}
	opts.Jobs = *jobs
	opts.CoherenceCheck = *cohCheck
	if *resources != "" {
		opts.Account = &harness.ResourceAccount{}
	}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opts.Ctx = ctx
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
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

	if a, ok := aliases[*only]; ok {
		*only = a
	}
	ran := false
	var completed []string
	for _, e := range experiments {
		name := e.job.Experiment
		if *only != "" && name != *only {
			continue
		}
		ran = true
		tab, err := harness.RunJob(e.job, opts)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				fmt.Fprintf(stdout, "reproduce: -timeout %s expired during %s; stopping.\n", *timeout, name)
				if len(completed) > 0 {
					fmt.Fprintf(stdout, "reproduce: partial results: %v completed and written to %s/\n", completed, *out)
				} else {
					fmt.Fprintf(stdout, "reproduce: partial results: no experiment completed; nothing written\n")
				}
			}
			return fmt.Errorf("%s: %w", name, err)
		}
		e.show(stdout, tab, opts)
		if err := writeCSV(*out, e.csv, tab); err != nil {
			return err
		}
		completed = append(completed, name)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *only)
	}
	if opts.Account != nil {
		// The snapshot uses the same JSON schema as the job service's
		// result "resources" block, so CLI and HTTP runs compare directly.
		buf, err := json.MarshalIndent(opts.Account.Snapshot(), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*resources, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "reproduce: resource counters written to %s\n", *resources)
	}
	return nil
}

// titled prints a table under a title line.
func titled(title string) func(io.Writer, *stats.Table, harness.Options) {
	return func(w io.Writer, tab *stats.Table, _ harness.Options) {
		fmt.Fprintln(w, title)
		fmt.Fprintln(w, tab.String())
	}
}

// cell parses a numeric table cell back into the value the harness
// rendered (to the table's 4-digit precision). The harness writes these
// cells with %.4f, so the parse cannot fail.
func cell(row []string, i int) float64 {
	v, _ := strconv.ParseFloat(row[i], 64)
	return v
}

// showPairs prints the normalized-time chart, the delayed-access MPKI chart
// and the table of a table2/parsec result (columns workload, normalized,
// mpki-base, mpki-tc, fa-l1i, fa-l1d, fa-llc), then the geomean against the
// paper's.
func showPairs(w io.Writer, tab *stats.Table, title, normTitle, mpkiTitle string, paper map[string][3]float64, paperNote string) {
	norm := textplot.Chart{Title: normTitle, Baseline: 1.0}
	mpki := textplot.Grouped{Title: mpkiTitle, Series: []string{"L1I", "L1D", "LLC"}}
	var norms, papers []float64
	for _, r := range tab.Rows {
		norm.Add(r[0], cell(r, 1))
		mpki.Add(r[0], cell(r, 4), cell(r, 5), cell(r, 6))
		norms = append(norms, cell(r, 1))
		if p, ok := paper[r[0]]; ok {
			papers = append(papers, p[0])
		}
	}
	gm := stats.GeoMean(norms)
	fmt.Fprintln(w, norm.String())
	fmt.Fprintln(w, mpki.String())
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, tab.String())
	fmt.Fprintf(w, "geomean normalized: measured %.4f (%.2f%% overhead), paper %.4f (%s)\n\n",
		gm, stats.OverheadPct(gm), stats.GeoMean(papers), paperNote)
}

// showSpec covers Fig. 7, Fig. 8, and the SPEC half of Table II.
func showSpec(w io.Writer, tab *stats.Table, _ harness.Options) {
	showPairs(w, tab, "Table II (SPEC2006):",
		"Fig. 7: normalized execution time (single core, 2 processes)",
		"Fig. 8: delayed-access MPKI per cache level",
		workload.PaperTableII, "1.13%")
}

// showParsec covers Fig. 9a/9b and the PARSEC rows of Table II.
func showParsec(w io.Writer, tab *stats.Table, _ harness.Options) {
	showPairs(w, tab, "Table II (PARSEC):",
		"Fig. 9a: PARSEC normalized execution time (2 threads, 2 cores)",
		"Fig. 9b: PARSEC delayed-access MPKI per cache",
		workload.PaperParsec, "0.8%")
}

// showLLCSweep covers Fig. 10.
func showLLCSweep(w io.Writer, tab *stats.Table, _ harness.Options) {
	chart := textplot.Chart{Title: "Fig. 10: overhead vs LLC size (scaled sweep; paper: 1.13%/0.4%/0.1% at 2/4/8MB)", Format: "%.3f%%"}
	for _, r := range tab.Rows {
		chart.Add(r[0], cell(r, 2))
	}
	fmt.Fprintln(w, chart.String())
	fmt.Fprintln(w, tab.String())
}

// showBookkeeping covers §VI-D: the s-bit cost model, then the slice sweep.
func showBookkeeping(w io.Writer, tab *stats.Table, opts harness.Options) {
	costs := harness.SbitCost(opts)
	fmt.Fprintln(w, "§VI-D s-bit save/restore costs:")
	fmt.Fprintf(w, "  L1 column: %d 64B transfers; LLC column: %d transfers\n", costs.L1Transfers, costs.LLCTransfers)
	fmt.Fprintf(w, "  per switch: DMA %d cycles (1.08us at 2GHz), copy %d cycles\n",
		costs.DMACyclesPerSwitch, costs.CopyCyclesPerSwitch)
	fmt.Fprintln(w, tab.String())
	fmt.Fprintln(w, "  (at Linux-scale 1-10ms slices the share converges on the paper's ~0.02%)")
	fmt.Fprintln(w)
}

// showAblation compares defenses.
func showAblation(w io.Writer, tab *stats.Table, _ harness.Options) {
	chart := textplot.Chart{Title: "Defense ablation on 2Xgobmk", Baseline: 1.0}
	for _, r := range tab.Rows {
		chart.Add(r[0], cell(r, 1))
	}
	fmt.Fprintln(w, chart.String())
	fmt.Fprintln(w, tab.String())
}

// writeHeapProfile writes a pprof heap profile after a final GC.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
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
