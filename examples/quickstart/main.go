// Quickstart: build a TimeCache machine, run two processes that share a
// binary, and watch the defense's first-access misses appear.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"timecache/internal/asm"
	"timecache/internal/defense"
	"timecache/internal/kernel"
	"timecache/internal/machine"
	"timecache/internal/vm"
)

// Two copies of this program share their text segment (same ShareKey), so
// each process's instruction fetches of lines the *other* process cached
// are delayed first accesses under TimeCache.
const program = `
	movi r1, 0
	movi r2, 100000
loop:
	addi r1, r1, 1
	blt  r1, r2, loop
	mov  r1, r1
	sys  0            ; exit with the counter value
`

func main() {
	prog, err := asm.Assemble(program)
	if err != nil {
		log.Fatal(err)
	}
	for _, kind := range []string{defense.None, defense.TimeCache} {
		k := machine.New(machine.Config{Defense: kind}).Kernel()
		var procs []*kernel.Process
		var cpus []*vm.CPU
		for i := 0; i < 2; i++ {
			p, cpu, err := k.Load(prog, kernel.LoadOptions{ShareKey: "counter"})
			if err != nil {
				log.Fatal(err)
			}
			procs = append(procs, p)
			cpus = append(cpus, cpu)
		}
		cycles := k.Run(1 << 62)
		for i, p := range procs {
			// A CPU fault (bad PC, division by zero) is recorded on the
			// CPU, a kernel fault (page fault) on the process.
			if p.State != kernel.Exited || p.Err != nil || cpus[i].Fault != nil {
				log.Fatalf("process %d did not finish cleanly: %v %v", i, p.Err, cpus[i].Fault)
			}
		}
		var firstAccess uint64
		for _, c := range k.Hierarchy().Caches() {
			firstAccess += c.Stats.FirstAccess
		}
		fmt.Printf("%-9s: %10d cycles, %4d context switches, %6d first-access misses\n",
			kind, cycles, k.Stats.ContextSwitches, firstAccess)
	}
	fmt.Println()
	fmt.Println("The baseline never delays reuse of another process's cached lines;")
	fmt.Println("TimeCache charges each process one miss per shared line per residency,")
	fmt.Println("which is exactly what breaks flush+reload style attacks.")
}
