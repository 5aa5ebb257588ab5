package timecache

import (
	"testing"

	"timecache/internal/asm"
	"timecache/internal/attack"
	"timecache/internal/defense"
	"timecache/internal/harness"
	"timecache/internal/kernel"
	"timecache/internal/machine"
	"timecache/internal/vm"
	"timecache/internal/workload"
)

// newKernel assembles a machine under the registry kind and returns its
// kernel (the run entry point).
func newKernel(cfg machine.Config) *kernel.Kernel { return machine.New(cfg).Kernel() }

// loadAsm assembles μRISC source and loads it as a process.
func loadAsm(k *kernel.Kernel, src string, opts kernel.LoadOptions) (*kernel.Process, *vm.CPU, error) {
	prog, err := asm.Assemble(src)
	if err != nil {
		return nil, nil, err
	}
	return k.Load(prog, opts)
}

// spawnSpec starts one instance of the named SPEC2006 workload model.
func spawnSpec(k *kernel.Kernel, name string, core int, instrs, seed uint64) (*kernel.Process, error) {
	prof, err := workload.Spec(name)
	if err != nil {
		return nil, err
	}
	p, _, err := workload.Spawn(k, prof, workload.SpawnOptions{Core: core, Instrs: instrs, Seed: seed})
	return p, err
}

// firstAccesses sums the delayed first accesses over every cache.
func firstAccesses(k *kernel.Kernel) (n uint64) {
	for _, c := range k.Hierarchy().Caches() {
		n += c.Stats.FirstAccess
	}
	return n
}

func TestNewDefaults(t *testing.T) {
	m := machine.New(machine.Config{Defense: defense.TimeCache})
	if n := len(m.Hierarchy().Caches()); n != 3 { // l1i0, l1d0, llc
		t.Fatalf("expected 3 caches, got %d", n)
	}
}

func TestLoadAsmAndRun(t *testing.T) {
	k := newKernel(machine.Config{})
	p, cpu, err := loadAsm(k, `
		movi r1, 6
		movi r2, 7
		mul  r1, r1, r2
		sys  4        ; print r1
		sys  0        ; exit r1
	`, kernel.LoadOptions{Name: "six-by-seven"})
	if err != nil {
		t.Fatal(err)
	}
	k.Run(1_000_000)
	if p.State != kernel.Exited {
		t.Fatal("program did not exit")
	}
	if p.Err != nil || cpu.Fault != nil {
		t.Fatal(p.Err, cpu.Fault)
	}
	if p.ExitCode != 42 {
		t.Fatalf("exit code %d, want 42", p.ExitCode)
	}
	if out := cpu.Output; len(out) != 1 || out[0] != 42 {
		t.Fatalf("output %v, want [42]", out)
	}
	if p.Stats.Instructions == 0 {
		t.Fatal("no instructions accounted")
	}
}

func TestAsmErrorSurface(t *testing.T) {
	k := newKernel(machine.Config{})
	if _, _, err := loadAsm(k, "bogus r1", kernel.LoadOptions{}); err == nil {
		t.Fatal("assembler errors must surface")
	}
}

func TestSharedTextFirstAccess(t *testing.T) {
	// Two copies of one looping binary sharing text: TimeCache must record
	// first accesses; the baseline never does.
	src := `
		movi r1, 0
		movi r2, 50000
	loop:
		addi r1, r1, 1
		blt  r1, r2, loop
		halt
	`
	for _, kind := range []string{defense.None, defense.TimeCache} {
		k := newKernel(machine.Config{Defense: kind})
		for i := 0; i < 2; i++ {
			if _, _, err := loadAsm(k, src, kernel.LoadOptions{ShareKey: "loop"}); err != nil {
				t.Fatal(err)
			}
		}
		k.Run(100_000_000)
		if !k.AllExited() {
			t.Fatal("did not finish")
		}
		fa := firstAccesses(k)
		if kind == defense.None && fa != 0 {
			t.Fatalf("baseline recorded %d first accesses", fa)
		}
		if kind == defense.TimeCache && fa == 0 {
			t.Fatal("TimeCache recorded no first accesses for shared text")
		}
		if kind == defense.TimeCache && k.Stats.BookkeepingCycles == 0 {
			t.Fatal("TimeCache bookkeeping not charged")
		}
	}
}

func TestSpawnSpecWorkload(t *testing.T) {
	k := newKernel(machine.Config{Defense: defense.TimeCache})
	if _, err := spawnSpec(k, "nonexistent", 0, 1000, 1); err == nil {
		t.Fatal("unknown workload must error")
	}
	p, err := spawnSpec(k, "namd", 0, 20_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	k.Run(1 << 62)
	if p.State != kernel.Exited {
		t.Fatal("workload did not finish")
	}
	if got := p.Stats.Instructions; got != 20_000 {
		t.Fatalf("instructions = %d, want 20000", got)
	}
}

func TestWorkloadLists(t *testing.T) {
	if len(workload.SpecNames()) < 15 {
		t.Fatal("SPEC list too short")
	}
	if len(workload.ParsecNames()) != 6 {
		t.Fatal("PARSEC list should have 6 entries")
	}
	if len(workload.SpecPairs()) != 24 {
		t.Fatalf("Table II has 24 workloads, got %d", len(workload.SpecPairs()))
	}
}

func TestPublicMicrobenchmark(t *testing.T) {
	base, err := attack.RunMicrobenchmark(machine.Config{Defense: defense.None})
	if err != nil {
		t.Fatal(err)
	}
	def, err := attack.RunMicrobenchmark(machine.Config{Defense: defense.TimeCache})
	if err != nil {
		t.Fatal(err)
	}
	if base.Hits == 0 || def.Hits != 0 {
		t.Fatalf("baseline hits=%d (want >0), timecache hits=%d (want 0)", base.Hits, def.Hits)
	}
}

func TestPublicRSAAttack(t *testing.T) {
	base, err := attack.RunRSA(machine.Config{Defense: defense.None}, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	if base.Accuracy < 0.9 || !base.VictimCorrect {
		t.Fatalf("baseline attack should succeed: %+v", base)
	}
	def, err := attack.RunRSA(machine.Config{Defense: defense.TimeCache}, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	if def.Hits != 0 || !def.VictimCorrect {
		t.Fatalf("defended attack should observe nothing: %+v", def)
	}
	if len(def.Key.String()) != 32 || len(def.Recovered.String()) != 32 {
		t.Fatal("bit strings malformed")
	}
}

// TestExperimentSinglePair runs one Table II row as a job. The ad-hoc
// "2X<profile>" fallback for profiles outside the Table II list went away
// with the wrapper that offered it: a job names Table II pairs only.
func TestExperimentSinglePair(t *testing.T) {
	opts := harness.Options{InstrsPerProc: 40_000, WarmupInstrs: 80_000}
	tab := runJob(t, harness.Job{Experiment: harness.ExpTableII, Pairs: []string{"2Xnamd"}}, opts)
	if len(tab.Rows) != 1 || tab.Rows[0][0] != "2Xnamd" {
		t.Fatalf("rows = %v, want one 2Xnamd row", tab.Rows)
	}
	if num(t, tab, 0, 1) <= 0 {
		t.Fatal("normalized time missing")
	}
	if workload.PaperTableII["2Xnamd"][0] == 0 {
		t.Fatal("paper reference missing for 2Xnamd")
	}
	if _, err := harness.RunJob(harness.Job{Experiment: harness.ExpTableII, Pairs: []string{"nonsense"}}, opts); err == nil {
		t.Fatal("unknown workload must error")
	}
}

func TestComputeSbitCosts(t *testing.T) {
	c := harness.SbitCost(harness.Options{})
	if c.L1Transfers != 1 || c.LLCTransfers != 64 {
		t.Fatalf("transfers: %+v", c)
	}
	if c.DMACyclesPerSwitch != 2160 {
		t.Fatalf("DMA cycles %d, want 2160 (1.08us at 2GHz)", c.DMACyclesPerSwitch)
	}
}

func TestDedupAPI(t *testing.T) {
	k := newKernel(machine.Config{Defense: defense.TimeCache})
	// Two private copies of the same program (no share key): dedup should
	// merge their identical text pages.
	src := "movi r1, 1\nhalt"
	if _, _, err := loadAsm(k, src, kernel.LoadOptions{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadAsm(k, src, kernel.LoadOptions{Name: "b"}); err != nil {
		t.Fatal(err)
	}
	if merged := k.DedupScan(); merged == 0 {
		t.Fatal("identical private text pages should merge")
	}
	if k.Stats.DedupMerged == 0 {
		t.Fatal("dedup stat not recorded")
	}
}
