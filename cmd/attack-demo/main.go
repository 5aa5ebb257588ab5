// Command attack-demo mounts the paper's attacks against an undefended
// machine and a defended one and reports what leaks.
//
// Usage:
//
//	attack-demo                 # run every attack against none and timecache
//	attack-demo -attack rsa     # just the flush+reload RSA extraction
//	attack-demo -attack rsa -bits 128 -seed 7
//	attack-demo -defense clepsydra -attack coherence
//
// Attacks: micro, rsa, evictreload, flushflush, primeprobe, lru,
// coherence, smt, evicttime. -defense takes any defense registry kind
// (internal/defense): none, timecache, ftm, dawg-lite, flush-on-switch,
// clepsydra, fase.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"timecache/internal/attack"
	"timecache/internal/defense"
	"timecache/internal/machine"
	"timecache/internal/replacement"
)

// demo is one attack's run against the undefended and defended machines.
type demo func(none, def machine.Config, bits int, seed uint64) error

func main() {
	var (
		which = flag.String("attack", "all", "attack to run (micro|rsa|evictreload|flushflush|primeprobe|lru|coherence|smt|evicttime|all)")
		kind  = flag.String("defense", defense.TimeCache, "defense registry kind: "+strings.Join(defense.Kinds(), " | "))
		bits  = flag.Int("bits", 64, "secret/key length in bits")
		seed  = flag.Uint64("seed", 42, "secret/key seed")
	)
	flag.Parse()
	// StaticOf rejects anything but a registry kind, naming the valid ones.
	if _, err := defense.StaticOf(*kind); err != nil {
		fmt.Fprintln(os.Stderr, "attack-demo:", err)
		os.Exit(1)
	}
	none, def := machine.Config{Defense: defense.None}, machine.Config{Defense: *kind}

	attacks := map[string]demo{
		"micro":       micro,
		"rsa":         rsaAttack,
		"evictreload": evictReload,
		"flushflush":  flushFlush,
		"primeprobe":  primeProbe,
		"lru":         lru,
		"coherence":   coherence,
		"smt":         smt,
		"evicttime":   evictTime,
	}
	order := []string{"micro", "rsa", "evictreload", "flushflush", "primeprobe", "lru", "coherence", "smt", "evicttime"}

	run := func(name string) {
		fmt.Printf("=== %s ===\n", name)
		if err := attacks[name](none, def, *bits, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "attack-demo: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if *which == "all" {
		for _, name := range order {
			run(name)
		}
		return
	}
	if _, ok := attacks[*which]; !ok {
		fmt.Fprintf(os.Stderr, "attack-demo: unknown attack %q\n", *which)
		os.Exit(1)
	}
	run(*which)
}

func micro(none, def machine.Config, _ int, _ uint64) error {
	for _, cfg := range []machine.Config{none, def} {
		r, err := attack.RunMicrobenchmark(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%-9s: %3d/%d shared lines observed as hits (mean probe %.1f cycles)\n",
			cfg.Defense, r.Hits, r.Lines, r.MeanLatency)
	}
	fmt.Println("paper §VI-A1: the attacker must see zero hits under the defense")
	return nil
}

func rsaAttack(none, def machine.Config, bits int, seed uint64) error {
	for _, cfg := range []machine.Config{none, def} {
		r, err := attack.RunRSA(cfg, bits, seed)
		if err != nil {
			return err
		}
		fmt.Printf("%-9s: accuracy %.1f%%, %d probe hits, victim correct: %v\n",
			cfg.Defense, r.Accuracy*100, r.Hits, r.VictimCorrect)
		fmt.Printf("  key      : %s\n  recovered: %s\n", r.Key, r.Recovered)
	}
	fmt.Println("paper §VI-A2: flush+reload extracts the key on the baseline; TimeCache blinds it")
	return nil
}

func evictReload(none, def machine.Config, bits int, seed uint64) error {
	for _, cfg := range []machine.Config{none, def} {
		r, err := attack.RunEvictReload(cfg, bits, seed)
		if err != nil {
			return err
		}
		fmt.Printf("%-9s: accuracy %.1f%%, %d probe hits\n", cfg.Defense, r.Accuracy*100, r.Hits)
	}
	fmt.Println("evict+reload (no clflush needed) is blocked the same way")
	return nil
}

func flushFlush(_, def machine.Config, bits int, seed uint64) error {
	leaky, err := attack.RunFlushFlush(def, bits, seed)
	if err != nil {
		return err
	}
	def.ConstantTimeFlush = true
	fixed, err := attack.RunFlushFlush(def, bits, seed)
	if err != nil {
		return err
	}
	fmt.Printf("%s, variable-time clflush: accuracy %.1f%%\n", def.Defense, leaky.Accuracy*100)
	fmt.Printf("%s, constant-time clflush: accuracy %.1f%%\n", def.Defense, fixed.Accuracy*100)
	fmt.Println("paper §VII-C: flush+flush needs the constant-time clflush mitigation")
	return nil
}

func primeProbe(none, def machine.Config, bits int, seed uint64) error {
	plain, err := attack.RunPrimeProbe(def, bits, seed)
	if err != nil {
		return err
	}
	none.RandomizedIndex = 0xC0FFEE
	rnd, err := attack.RunPrimeProbe(none, bits, seed)
	if err != nil {
		return err
	}
	fmt.Printf("%s, normal index : accuracy %.1f%%\n", def.Defense, plain.Accuracy*100)
	fmt.Printf("%s, randomized index : accuracy %.1f%% (CEASER-lite defeats it)\n", none.Defense, rnd.Accuracy*100)
	fmt.Println("paper §IX: pair TimeCache with a randomizing cache for a holistic defense")
	return nil
}

func lru(_, def machine.Config, bits int, seed uint64) error {
	def.Policy = replacement.LRU
	det, err := attack.RunLRU(def, bits, seed)
	if err != nil {
		return err
	}
	def.Policy = replacement.Random
	rnd, err := attack.RunLRU(def, bits, seed)
	if err != nil {
		return err
	}
	fmt.Printf("%s + true LRU       : accuracy %.1f%%\n", def.Defense, det.Accuracy*100)
	fmt.Printf("%s + random replace : accuracy %.1f%% (channel destroyed)\n", def.Defense, rnd.Accuracy*100)
	fmt.Println("paper §VII-A: LRU attacks are the randomizing cache's job")
	return nil
}

func coherence(none, def machine.Config, bits int, seed uint64) error {
	for _, cfg := range []machine.Config{none, def} {
		r, err := attack.RunCoherence(cfg, bits, seed)
		if err != nil {
			return err
		}
		fmt.Printf("%-9s: accuracy %.1f%%\n", cfg.Defense, r.Accuracy*100)
	}
	fmt.Println("paper §VII-B: waiting for the DRAM response hides the remote-L1 forward")
	return nil
}

func smt(none, def machine.Config, bits int, seed uint64) error {
	for _, cfg := range []machine.Config{none, def} {
		r, err := attack.RunSMT(cfg, bits, seed)
		if err != nil {
			return err
		}
		fmt.Printf("%-9s: accuracy %.1f%%\n", cfg.Defense, r.Accuracy*100)
	}
	fmt.Println("paper §III: hyperthread attackers sharing the L1 are inside the threat model")
	return nil
}

func evictTime(none, def machine.Config, _ int, _ uint64) error {
	for _, cfg := range []machine.Config{none, def} {
		r, err := attack.RunEvictTime(cfg, 2000)
		if err != nil {
			return err
		}
		fmt.Printf("%-9s: victim %d cycles flushed vs %d undisturbed (leaks: %v)\n",
			cfg.Defense, r.VictimCyclesFlushed, r.VictimCyclesUndisturbed, r.Leaks())
	}
	fmt.Println("paper §VII-D: evict+time persists but stays noisy and impractical")
	return nil
}
