// Command asm-run assembles and executes μRISC programs on a simulated
// machine, printing the program's output, exit code, and cache behavior —
// a REPL-style driver for the ISA substrate.
//
// Usage:
//
//	asm-run prog.s                           # run one program, print results
//	asm-run -defense timecache -n 2 prog.s   # two shared-text instances
//	echo 'movi r1, 42
//	sys 0' | asm-run -                      # read source from stdin
//
// -defense takes any defense registry kind (internal/defense): none,
// timecache, ftm, dawg-lite, flush-on-switch, clepsydra, fase.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"timecache/internal/asm"
	"timecache/internal/defense"
	"timecache/internal/kernel"
	"timecache/internal/machine"
	"timecache/internal/stats"
	"timecache/internal/vm"
)

func main() {
	var (
		kind    = flag.String("defense", defense.None, "defense registry kind: "+strings.Join(defense.Kinds(), " | "))
		n       = flag.Int("n", 1, "instances to run (sharing text when > 1)")
		max     = flag.Uint64("max", 1_000_000_000, "cycle budget")
		verbose = flag.Bool("v", false, "print per-cache statistics")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fatal(fmt.Errorf("usage: asm-run [flags] <file.s | ->"))
	}
	// StaticOf rejects anything but a registry kind, naming the valid ones.
	if _, err := defense.StaticOf(*kind); err != nil {
		fatal(err)
	}

	src, err := readSource(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := asm.Assemble(string(src))
	if err != nil {
		fatal(err)
	}

	k := machine.New(machine.Config{Defense: *kind}).Kernel()
	var procs []*kernel.Process
	var cpus []*vm.CPU
	for i := 0; i < *n; i++ {
		opts := kernel.LoadOptions{Name: fmt.Sprintf("p%d", i+1)}
		if *n > 1 {
			opts.ShareKey = "asm-run"
		}
		p, cpu, err := k.Load(prog, opts)
		if err != nil {
			fatal(err)
		}
		procs = append(procs, p)
		cpus = append(cpus, cpu)
	}
	cycles := k.Run(*max)

	ok := true
	for i, p := range procs {
		fmt.Printf("process %d: ", i+1)
		switch fault := procFault(p, cpus[i]); {
		case fault != nil:
			ok = false
			fmt.Printf("FAULT: %v\n", fault)
		case p.State != kernel.Exited:
			ok = false
			fmt.Printf("did not finish within %d cycles\n", *max)
		default:
			fmt.Printf("exit=%d instructions=%d\n", p.ExitCode, p.Stats.Instructions)
		}
		for _, v := range cpus[i].Output {
			fmt.Printf("  output: %d (0x%x)\n", v, v)
		}
	}
	fmt.Printf("total: %d cycles, %d context switches\n", cycles, k.Stats.ContextSwitches)
	if *verbose {
		tb := stats.NewTable("cache", "accesses", "hits", "misses", "first-access")
		for _, c := range k.Hierarchy().Caches() {
			tb.Add(c.Name(), c.Stats.Accesses, c.Stats.Hits, c.Stats.Misses, c.Stats.FirstAccess)
		}
		fmt.Print(tb.String())
	}
	if !ok {
		os.Exit(1)
	}
}

// procFault returns the fault that killed p: a kernel-level one (page
// fault, write to read-only text) or the CPU's own (bad PC, division by
// zero).
func procFault(p *kernel.Process, cpu *vm.CPU) error {
	if p.Err != nil {
		return p.Err
	}
	return cpu.Fault
}

func readSource(arg string) ([]byte, error) {
	if arg == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(arg)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "asm-run:", err)
	os.Exit(1)
}
