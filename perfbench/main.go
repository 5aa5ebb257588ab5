// Command perfbench is the repository benchmark. It drives three workloads
// through the simulator's public entry points — harness.RunJob in process,
// and server.New behind a loopback listener — checks every output it
// produces, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as one JSON object on the last line of standard
// output. See README.md in this directory for what each workload and
// metric means.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload spec-sweep --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics every untraced run reports, on every workload.
// BENCHMARK.json lists the same names and units; checkBenchmarkFile keeps
// the two in step.
var endToEnd = []metricSpec{
	{"wall_s", "s"},
	{"minstr_per_s", "Minstr/s"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
}

// profileLayers are the CPU-profile buckets, in report order.
var profileLayers = []string{
	"cache", "kernel", "mem", "workload", "replacement", "core", "defense",
	"attack", "harness", "machine", "server", "jobstore", "resultcache",
	"bench", "runtime_malloc", "runtime_gc", "other",
}

// perLayer are the metrics every traced run reports, on every workload. A
// layer the workload does not exercise reports 0.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"harness.legs", "count"},
		{"harness.leg_ms_p50", "ms"},
		{"harness.leg_ms_max", "ms"},
		{"runner.busy_frac", "frac"},
		{"machine.pool_hit_frac", "frac"},
		{"machine.snapshot_hit_frac", "frac"},
		{"sim.instructions", "count"},
		{"sim.cycles", "count"},
		{"cache.l1i_accesses", "count"},
		{"cache.l1d_accesses", "count"},
		{"cache.llc_accesses", "count"},
		{"kernel.context_switches", "count"},
		{"cache.sbit_delayed_loads", "count"},
		{"runtime.allocs_per_instr", "count"},
		{"runtime.alloc_bytes_per_instr", "B"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_cpu_frac", "frac"},
		{"workload.step_self_ns", "ns"},
		{"kernel.sched_ns_per_step", "ns"},
		{"env.fetch_ns", "ns"},
		{"env.load_ns", "ns"},
		{"env.store_ns", "ns"},
		{"env.flush_ns", "ns"},
	}
	for _, l := range profileLayers {
		m = append(m, metricSpec{"profile." + l + "_frac", "frac"})
	}
	m = append(m,
		metricSpec{"http.submit_ms_p50_hit", "ms"},
		metricSpec{"http.submit_ms_p50_cold", "ms"},
		metricSpec{"http.wait_ms_p50_hit", "ms"},
		metricSpec{"http.wait_ms_p50_cold", "ms"},
		metricSpec{"http.fetch_ms_p50_hit", "ms"},
		metricSpec{"http.fetch_ms_p50_cold", "ms"},
		metricSpec{"server.queue_wait_ms_p50", "ms"},
		metricSpec{"server.run_ms_p50", "ms"},
		metricSpec{"jobstore.appends_per_hit", "count"},
		metricSpec{"jobstore.appends_per_cold", "count"},
		metricSpec{"jobstore.append_us_p50", "us"},
		metricSpec{"jobstore.append_us_p99", "us"},
		metricSpec{"jobstore.append_busy_frac", "frac"},
		metricSpec{"resultcache.hit_frac", "frac"},
		metricSpec{"resultcache.get_us_p50", "us"},
		metricSpec{"cold_jobs_per_s", "1/s"},
		metricSpec{"cold_p50_ms", "ms"},
		metricSpec{"cold_p90_ms", "ms"},
		metricSpec{"hit_jobs_per_s", "1/s"},
		metricSpec{"hit_p50_ms", "ms"},
		metricSpec{"hit_p99_ms", "ms"},
		metricSpec{"error_frac", "frac"},
		metricSpec{"model.spec_geomean_overhead_pct", "%"},
		metricSpec{"model.parsec_geomean_overhead_pct", "%"},
		metricSpec{"trace.overhead_frac", "frac"},
	)
	return m
}()

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
}

// outcome is one workload run's verdict and measurements.
type outcome struct {
	attempted, failed int
	problems          []string           // output-check failures, one line each
	e2e               map[string]float64 // end-to-end metrics (untraced)
	layers            map[string]float64 // per-layer metrics (traced runs)
	report            []string           // human-readable lines printed before the result
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// fail records an output-check failure.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// note adds one line to the human-readable report.
func (o *outcome) note(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(runConfig) (*outcome, error){
	"spec-sweep":        runSpecSweep,
	"defense-multicore": runDefenseMulticore,
	"serve-durable":     runServeDurable,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: spec-sweep, defense-multicore, or serve-durable")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed (picks the matrix secret seed and the serve spec sequence)")
		seconds = flag.Int("seconds", 30, "how long the timed passes run")
		trace   = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		pinsOut = flag.String("update-pins", "", "write this run's result hashes and counters into the given pins file")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fatalf("unknown --workload %q (want one of %s)", *name, strings.Join(sortedKeys(workloads), ", "))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be positive and --trace 0 or 1")
	}
	if err := checkBenchmarkFile("BENCHMARK.json"); err != nil {
		fatalf("%v", err)
	}
	cfg := runConfig{seed: *seed, seconds: float64(*seconds), trace: *trace == 1}
	if *pinsOut != "" {
		if err := updatePins(*pinsOut, *name, cfg); err != nil {
			fatalf("%v", err)
		}
		return
	}
	out, err := run(cfg)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	if out.attempted > 0 {
		out.layers["error_frac"] = float64(out.failed) / float64(out.attempted)
	}
	for _, line := range out.report {
		fmt.Println(line)
	}
	const maxShown = 20 // a broken daemon fails every job; show the first few
	for i, p := range out.problems {
		if i == maxShown {
			fmt.Printf("CHECK FAILED: ... and %d more\n", len(out.problems)-maxShown)
			break
		}
		fmt.Println("CHECK FAILED:", p)
	}
	specs, vals := endToEnd, out.e2e
	if cfg.trace {
		specs, vals = perLayer, out.layers
	}
	metrics := map[string]any{}
	for _, m := range specs {
		v, ok := vals[m.name]
		if !ok {
			fatalf("%s: metric %s was not measured", *name, m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fatalf("%s: metric %s is %v", *name, m.name, v)
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	correct := len(out.problems) == 0
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// checkBenchmarkFile verifies that the metric names and units the program
// reports are exactly the ones BENCHMARK.json declares, so the two cannot
// drift apart.
func checkBenchmarkFile(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read %s (run from the repository root): %w", path, err)
	}
	var f struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s lists %d %s metrics, the program reports %d", path, len(got), kind, len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				return fmt.Errorf("%s %s metric %d is %s [%s], the program reports %s [%s]",
					path, kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
		return nil
	}
	if err := same("end_to_end", f.EndToEnd, endToEnd); err != nil {
		return err
	}
	if err := same("per_layer", f.PerLayer, perLayer); err != nil {
		return err
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(sortedKeys(workloads), ",") {
		return fmt.Errorf("%s workloads %v differ from the program's %v", path, names, sortedKeys(workloads))
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
