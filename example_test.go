package timecache_test

import (
	"fmt"

	"timecache/internal/asm"
	"timecache/internal/attack"
	"timecache/internal/defense"
	"timecache/internal/kernel"
	"timecache/internal/machine"
)

// Build a machine, run a tiny program, and read its result.
func Example_loadAsm() {
	k := machine.New(machine.Config{Defense: defense.TimeCache}).Kernel()
	prog, _ := asm.Assemble(`
		movi r1, 6
		movi r2, 7
		mul  r1, r1, r2
		sys  0           ; exit(r1)
	`)
	p, _, _ := k.Load(prog, kernel.LoadOptions{})
	k.Run(1 << 30)
	fmt.Println(p.ExitCode)
	// Output: 42
}

// The headline security result: the flush+reload RSA key extraction
// succeeds on an undefended cache and observes nothing under TimeCache.
func Example_rsaAttack() {
	base, _ := attack.RunRSA(machine.Config{Defense: defense.None}, 32, 7)
	defended, _ := attack.RunRSA(machine.Config{Defense: defense.TimeCache}, 32, 7)
	fmt.Printf("baseline recovered the key: %v\n", base.Accuracy == 1)
	fmt.Printf("timecache probe hits: %d\n", defended.Hits)
	// Output:
	// baseline recovered the key: true
	// timecache probe hits: 0
}

// The §VI-A1 microbenchmark: flush a shared array, let the victim write
// it, time the reloads.
func Example_microbenchmark() {
	base, _ := attack.RunMicrobenchmark(machine.Config{Defense: defense.None})
	defended, _ := attack.RunMicrobenchmark(machine.Config{Defense: defense.TimeCache})
	fmt.Printf("baseline: %d/%d hits, timecache: %d/%d hits\n",
		base.Hits, base.Lines, defended.Hits, defended.Lines)
	// Output: baseline: 256/256 hits, timecache: 0/256 hits
}
