package timecache

import (
	"reflect"
	"strings"
	"testing"

	"timecache/internal/cache"
	"timecache/internal/harness"
	"timecache/internal/machine"
	"timecache/internal/workload"
)

func TestNewDefaults(t *testing.T) {
	s, err := New(Config{Mode: TimeCache})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if len(st.Caches) != 3 { // l1i0, l1d0, llc
		t.Fatalf("expected 3 caches, got %d", len(st.Caches))
	}
}

func TestLoadAsmAndRun(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.LoadAsm(`
		movi r1, 6
		movi r2, 7
		mul  r1, r1, r2
		sys  4        ; print r1
		sys  0        ; exit r1
	`, LoadOptions{Name: "six-by-seven"})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(1_000_000)
	if !p.Exited() {
		t.Fatal("program did not exit")
	}
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
	if p.ExitCode() != 42 {
		t.Fatalf("exit code %d, want 42", p.ExitCode())
	}
	if out := p.Output(); len(out) != 1 || out[0] != 42 {
		t.Fatalf("output %v, want [42]", out)
	}
	if p.Stats().Instructions == 0 {
		t.Fatal("no instructions accounted")
	}
}

func TestAsmErrorSurface(t *testing.T) {
	s, _ := New(Config{})
	if _, err := s.LoadAsm("bogus r1", LoadOptions{}); err == nil {
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
	for _, mode := range []Mode{Baseline, TimeCache} {
		s, err := New(Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := s.LoadAsm(src, LoadOptions{ShareKey: "loop"}); err != nil {
				t.Fatal(err)
			}
		}
		s.Run(100_000_000)
		if !s.AllExited() {
			t.Fatal("did not finish")
		}
		var fa uint64
		for _, c := range s.Stats().Caches {
			fa += c.FirstAccess
		}
		if mode == Baseline && fa != 0 {
			t.Fatalf("baseline recorded %d first accesses", fa)
		}
		if mode == TimeCache && fa == 0 {
			t.Fatal("TimeCache recorded no first accesses for shared text")
		}
		if mode == TimeCache && s.Stats().BookkeepingCycles == 0 {
			t.Fatal("TimeCache bookkeeping not charged")
		}
	}
}

func TestSpawnSpecWorkload(t *testing.T) {
	s, err := New(Config{Mode: TimeCache})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SpawnSpec("nonexistent", 0, 1000, 1); err == nil {
		t.Fatal("unknown workload must error")
	}
	p, err := s.SpawnSpec("namd", 0, 20_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(1 << 62)
	if !p.Exited() {
		t.Fatal("workload did not finish")
	}
	if got := p.Stats().Instructions; got != 20_000 {
		t.Fatalf("instructions = %d, want 20000", got)
	}
}

func TestSpawnParsecNeedsTwoCores(t *testing.T) {
	s, _ := New(Config{Cores: 1})
	if _, err := s.SpawnParsecPair("x264", 1000); err == nil {
		t.Fatal("1-core PARSEC pair must error")
	}
	s2, _ := New(Config{Cores: 2})
	ps, err := s2.SpawnParsecPair("x264", 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 {
		t.Fatalf("want 2 threads, got %d", len(ps))
	}
	s2.Run(1 << 62)
	if !s2.AllExited() {
		t.Fatal("threads did not finish")
	}
}

func TestWorkloadLists(t *testing.T) {
	if len(SpecWorkloads()) < 15 {
		t.Fatal("SPEC list too short")
	}
	if len(ParsecWorkloads()) != 6 {
		t.Fatal("PARSEC list should have 6 entries")
	}
	if len(workload.SpecPairs()) != 24 {
		t.Fatalf("Table II has 24 workloads, got %d", len(workload.SpecPairs()))
	}
}

func TestModeString(t *testing.T) {
	if Baseline.String() != "baseline" || TimeCache.String() != "timecache" || FTM.String() != "ftm" {
		t.Fatal("mode names wrong")
	}
	if !strings.HasPrefix(Mode(9).String(), "Mode(") {
		t.Fatal("unknown mode formatting")
	}
}

func TestParseMode(t *testing.T) {
	for _, m := range []Mode{Baseline, TimeCache, FTM} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, name := range []string{"", "bogus", "TimeCache", "none", "Mode(9)"} {
		if m, err := ParseMode(name); err == nil {
			t.Errorf("ParseMode(%q) = %v, want an error", name, m)
		}
	}
}

// TestModeMachineConfig pins the one place the public Mode meets the
// machine: machineConfig selects the defense by registry kind and never
// sets the structural Mode, and a System built that way runs a workload
// counter for counter like a machine built from the structural Mode of the
// same name. The workload shares text across two cores, so both defenses
// record first accesses and a wrong mapping shows in the counters.
func TestModeMachineConfig(t *testing.T) {
	const loop = `
		movi r1, 0
		movi r2, 5000
	loop:
		addi r1, r1, 1
		blt  r1, r2, loop
		halt
	`
	for _, tc := range []struct {
		mode Mode
		kind string
		sec  cache.SecMode
	}{
		{Baseline, "none", cache.SecOff},
		{TimeCache, "timecache", cache.SecTimeCache},
		{FTM, "ftm", cache.SecFTM},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			cfg := Config{Mode: tc.mode, Cores: 2}.withDefaults()
			mcfg := cfg.machineConfig()
			if mcfg.Defense != tc.kind || mcfg.Mode != 0 {
				t.Fatalf("machineConfig: Defense %q, Mode %v; want Defense %q and a zero Mode", mcfg.Defense, mcfg.Mode, tc.kind)
			}
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			legacy := mcfg
			legacy.Defense, legacy.Mode = "", tc.sec
			ref := &System{cfg: cfg, k: machine.New(legacy).Kernel()}
			run := func(s *System) (Stats, []ProcessStats) {
				var procs []*Process
				for i, name := range []string{"lbm", "namd"} {
					p, err := s.SpawnSpec(name, 0, 20_000, uint64(i+1))
					if err != nil {
						t.Fatal(err)
					}
					procs = append(procs, p)
				}
				for core := 0; core < 2; core++ {
					p, err := s.LoadAsm(loop, LoadOptions{Core: core, ShareKey: "loop"})
					if err != nil {
						t.Fatal(err)
					}
					procs = append(procs, p)
				}
				s.Run(1 << 62)
				if !s.AllExited() {
					t.Fatal("workload did not finish")
				}
				var ps []ProcessStats
				for _, p := range procs {
					ps = append(ps, p.Stats())
				}
				return s.Stats(), ps
			}
			got, gotProcs := run(sys)
			want, wantProcs := run(ref)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotProcs, wantProcs) {
				t.Errorf("registry kind diverged from the structural mode:\n got %+v %+v\nwant %+v %+v", got, gotProcs, want, wantProcs)
			}
			var fa uint64
			for _, c := range got.Caches {
				fa += c.FirstAccess
			}
			if (fa == 0) != (tc.mode == Baseline) {
				t.Errorf("%d first accesses under %v: the workload does not tell the defenses apart", fa, tc.mode)
			}
		})
	}
}

func TestPublicMicrobenchmark(t *testing.T) {
	base, err := RunMicrobenchmark(Baseline)
	if err != nil {
		t.Fatal(err)
	}
	def, err := RunMicrobenchmark(TimeCache)
	if err != nil {
		t.Fatal(err)
	}
	if base.Hits == 0 || def.Hits != 0 {
		t.Fatalf("baseline hits=%d (want >0), timecache hits=%d (want 0)", base.Hits, def.Hits)
	}
}

func TestPublicRSAAttack(t *testing.T) {
	base, err := RunRSAAttack(Baseline, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	if base.Accuracy < 0.9 || !base.VictimCorrect {
		t.Fatalf("baseline attack should succeed: %+v", base)
	}
	def, err := RunRSAAttack(TimeCache, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	if def.Hits != 0 || !def.VictimCorrect {
		t.Fatalf("defended attack should observe nothing: %+v", def)
	}
	if len(def.KeyBits) != 32 || len(def.RecoveredBits) != 32 {
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
	s, err := New(Config{Mode: TimeCache})
	if err != nil {
		t.Fatal(err)
	}
	// Two private copies of the same program (no share key): dedup should
	// merge their identical text pages.
	src := "movi r1, 1\nhalt"
	if _, err := s.LoadAsm(src, LoadOptions{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadAsm(src, LoadOptions{Name: "b"}); err != nil {
		t.Fatal(err)
	}
	if merged := s.DedupScan(); merged == 0 {
		t.Fatal("identical private text pages should merge")
	}
	if s.Stats().DedupMergedPages == 0 {
		t.Fatal("dedup stat not recorded")
	}
}
