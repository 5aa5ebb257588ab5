// Command asm-run assembles and executes μRISC programs on a simulated
// machine, printing the program's output, exit code, and cache behavior —
// a REPL-style driver for the ISA substrate.
//
// Usage:
//
//	asm-run prog.s                    # run one program, print results
//	asm-run -mode timecache -n 2 prog.s   # two shared-text instances
//	echo 'movi r1, 42
//	sys 0' | asm-run -               # read source from stdin
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"timecache"
	"timecache/internal/stats"
)

func main() {
	var (
		modeFlag = flag.String("mode", "baseline", "baseline | timecache | ftm")
		n        = flag.Int("n", 1, "instances to run (sharing text when > 1)")
		max      = flag.Uint64("max", 1_000_000_000, "cycle budget")
		verbose  = flag.Bool("v", false, "print per-cache statistics")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fatal(fmt.Errorf("usage: asm-run [flags] <file.s | ->"))
	}

	src, err := readSource(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	mode, err := timecache.ParseMode(*modeFlag)
	if err != nil {
		fatal(err)
	}

	sys, err := timecache.New(timecache.Config{Mode: mode})
	if err != nil {
		fatal(err)
	}
	var procs []*timecache.Process
	for i := 0; i < *n; i++ {
		opts := timecache.LoadOptions{Name: fmt.Sprintf("p%d", i+1)}
		if *n > 1 {
			opts.ShareKey = "asm-run"
		}
		p, err := sys.LoadAsm(string(src), opts)
		if err != nil {
			fatal(err)
		}
		procs = append(procs, p)
	}
	cycles := sys.Run(*max)

	for i, p := range procs {
		fmt.Printf("process %d: ", i+1)
		switch {
		case p.Err() != nil:
			fmt.Printf("FAULT: %v\n", p.Err())
		case !p.Exited():
			fmt.Printf("did not finish within %d cycles\n", *max)
		default:
			fmt.Printf("exit=%d instructions=%d\n", p.ExitCode(), p.Stats().Instructions)
		}
		for _, v := range p.Output() {
			fmt.Printf("  output: %d (0x%x)\n", v, v)
		}
	}
	fmt.Printf("total: %d cycles, %d context switches\n", cycles, sys.Stats().ContextSwitches)
	if *verbose {
		tb := stats.NewTable("cache", "accesses", "hits", "misses", "first-access")
		for _, c := range sys.Stats().Caches {
			tb.Add(c.Name, c.Accesses, c.Hits, c.Misses, c.FirstAccess)
		}
		fmt.Print(tb.String())
	}
	for _, p := range procs {
		if p.Err() != nil || !p.Exited() {
			os.Exit(1)
		}
	}
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
