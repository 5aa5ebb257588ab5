// SPEC overhead: reproduce one row of the paper's Table II — a pair of
// SPEC2006 workload models time-sharing one core — and print the measured
// normalized execution time and LLC MPKI next to the paper's numbers.
//
//	go run ./examples/spec_overhead            # 2Xwrf
//	go run ./examples/spec_overhead 2Xlbm
//	go run ./examples/spec_overhead perl+wrf
package main

import (
	"fmt"
	"log"
	"os"

	"timecache/internal/harness"
	"timecache/internal/workload"
)

func main() {
	label := "2Xwrf"
	if len(os.Args) > 1 {
		label = os.Args[1]
	}
	opts := harness.Options{InstrsPerProc: 300_000, WarmupInstrs: 250_000}
	fmt.Printf("running %s (%d measured instructions per process after %d warmup)...\n\n",
		label, opts.InstrsPerProc, opts.WarmupInstrs)
	tab, err := harness.RunJob(harness.Job{Experiment: harness.ExpTableII, Pairs: []string{label}}, opts)
	if err != nil {
		log.Fatal(err)
	}
	// One row in the Table II slice format: workload, normalized,
	// mpki-base, mpki-tc, fa-l1i, fa-l1d, fa-llc.
	row, paper := tab.Rows[0], workload.PaperTableII[label]

	fmt.Printf("%-22s %12s %12s\n", "", "measured", "paper")
	fmt.Printf("%-22s %12s %12.4f\n", "normalized exec time", row[1], paper[0])
	fmt.Printf("%-22s %12s %12.4f\n", "LLC MPKI (baseline)", row[2], paper[1])
	fmt.Printf("%-22s %12s %12.4f\n", "LLC MPKI (timecache)", row[3], paper[2])
	fmt.Println()
	fmt.Printf("delayed first accesses: L1I %s, L1D %s, LLC %s MPKI\n", row[4], row[5], row[6])
	fmt.Println("s-bit bookkeeping share vs slice length: go run ./cmd/reproduce -only bookkeeping")
}
