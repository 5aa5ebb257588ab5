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
	var pair workload.Pair
	for _, p := range workload.SpecPairs() {
		if p.Label == label {
			pair = p
		}
	}
	if pair.Label == "" {
		log.Fatalf("unknown workload pair %q", label)
	}
	opts := harness.Options{InstrsPerProc: 300_000, WarmupInstrs: 250_000}
	fmt.Printf("running %s (%d measured instructions per process after %d warmup)...\n\n",
		label, opts.InstrsPerProc, opts.WarmupInstrs)
	rows, err := harness.RunSpecPairs([]workload.Pair{pair}, opts)
	if err != nil {
		log.Fatal(err)
	}
	row, paper := rows[0], workload.PaperTableII[label]

	fmt.Printf("%-22s %12s %12s\n", "", "measured", "paper")
	fmt.Printf("%-22s %12.4f %12.4f\n", "normalized exec time", row.Normalized, paper[0])
	fmt.Printf("%-22s %12.4f %12.4f\n", "LLC MPKI (baseline)", row.MPKIBase, paper[1])
	fmt.Printf("%-22s %12.4f %12.4f\n", "LLC MPKI (timecache)", row.MPKITC, paper[2])
	fmt.Println()
	fmt.Printf("delayed first accesses: L1I %.4f, L1D %.4f, LLC %.4f MPKI\n",
		row.FirstAccess.L1I, row.FirstAccess.L1D, row.FirstAccess.LLC)
	fmt.Printf("s-bit bookkeeping     : %.4f%% of execution (shrinks with slice length;\n", row.BookkeepingPct)
	fmt.Println("                        the paper reports ~0.02% at Linux-scale slices)")
}
