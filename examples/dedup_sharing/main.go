// Dedup sharing: the paper's motivation for TimeCache includes making
// memory deduplication (KSM / copy-on-write fork) safe to deploy. This
// example loads two *private* copies of the same program, lets the KSM
// scanner merge their identical pages, and shows that the resulting
// cross-process physical sharing is an attack channel on the baseline but
// not under TimeCache — while the memory savings remain.
//
//	go run ./examples/dedup_sharing
package main

import (
	"fmt"
	"log"

	"timecache/internal/asm"
	"timecache/internal/defense"
	"timecache/internal/kernel"
	"timecache/internal/machine"
)

// A program that repeatedly touches its own text so the shared (deduped)
// lines stay cache-resident.
const worker = `
	movi r1, 0
	movi r2, 60000
loop:
	addi r1, r1, 1
	blt  r1, r2, loop
	sys  0
`

func main() {
	prog, err := asm.Assemble(worker)
	if err != nil {
		log.Fatal(err)
	}
	for _, kind := range []string{defense.None, defense.TimeCache} {
		k := machine.New(machine.Config{Defense: kind}).Kernel()
		// No ShareKey: each process gets private frames for its text.
		for i := 0; i < 2; i++ {
			if _, _, err := k.Load(prog, kernel.LoadOptions{Name: fmt.Sprintf("w%d", i)}); err != nil {
				log.Fatal(err)
			}
		}
		merged := k.DedupScan()
		cycles := k.Run(1 << 62)
		if !k.AllExited() {
			log.Fatal("workers did not finish")
		}
		var firstAccess uint64
		for _, c := range k.Hierarchy().Caches() {
			firstAccess += c.Stats.FirstAccess
		}
		fmt.Printf("--- %s ---\n", kind)
		fmt.Printf("pages merged by KSM scan : %d (COW preserved: %d breaks during run)\n",
			merged, k.Stats.COWBreaks)
		fmt.Printf("run                      : %d cycles, %d first-access misses\n\n",
			cycles, firstAccess)
	}

	fmt.Println("After dedup the two processes share physical text frames, so one")
	fmt.Println("process's fetches warm lines the other can probe — a reuse channel.")
	fmt.Println("TimeCache charges the prober a first-access miss instead, so systems")
	fmt.Println("can keep deduplication's 2-4x memory savings without the side channel.")
}
