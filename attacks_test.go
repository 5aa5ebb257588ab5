package timecache

import (
	"testing"

	"timecache/internal/attack"
	"timecache/internal/defense"
	"timecache/internal/harness"
	"timecache/internal/kernel"
	"timecache/internal/machine"
	"timecache/internal/replacement"
)

// TestAttackWrapperSweep exercises every attack entry point the commands
// and examples call, at small sizes; the detailed behavioral assertions live in
// internal/attack — here we check that each one takes its mitigation knob
// from the machine.Config and reports results faithfully.
func TestAttackWrapperSweep(t *testing.T) {
	const bits, seed = 16, 3
	none := machine.Config{Defense: defense.None}
	tc := machine.Config{Defense: defense.TimeCache}

	if r, err := attack.RunEvictReload(tc, bits, seed); err != nil || r.Hits != 0 {
		t.Fatalf("evict+reload: %+v err=%v", r, err)
	}
	ctFlush := tc
	ctFlush.ConstantTimeFlush = true
	if r, err := attack.RunFlushFlush(ctFlush, bits, seed); err != nil || r.Accuracy > 0.95 {
		t.Fatalf("flush+flush(ct): %+v err=%v", r, err)
	}
	if r, err := attack.RunPrimeProbe(none, bits, seed); err != nil || r.Accuracy < 0.8 {
		t.Fatalf("prime+probe: %+v err=%v", r, err)
	}
	lru := none
	lru.Policy = replacement.LRU
	if r, err := attack.RunLRU(lru, bits, seed); err != nil || r.Accuracy < 0.8 {
		t.Fatalf("lru: %+v err=%v", r, err)
	}
	bogus := none
	bogus.Policy = "bogus-policy"
	if _, err := attack.RunLRU(bogus, bits, seed); err == nil {
		t.Fatal("unknown replacement policy must error")
	}
	if r, err := attack.RunCoherence(tc, bits, seed); err != nil || r.Accuracy > 0.8 {
		t.Fatalf("coherence: %+v err=%v", r, err)
	}
	if r, err := attack.RunSMT(tc, bits, seed); err != nil || r.Accuracy > 0.8 {
		t.Fatalf("smt: %+v err=%v", r, err)
	}
	if r, err := attack.RunEvictTime(none, 500); err != nil || !r.Leaks() {
		t.Fatalf("evict+time: %+v err=%v", r, err)
	}
	if r, err := attack.RunSpectre(tc, []byte("ab")); err != nil || r.Hits != 0 {
		t.Fatalf("spectre: %+v err=%v", r, err)
	}
	if _, err := attack.RunSpectre(tc, nil); err == nil {
		t.Fatal("empty spectre secret must error")
	}
	// Bit-string fields must be populated and consistent.
	r, err := attack.RunSMT(none, bits, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Secret) != bits || len(r.Recovered) != bits {
		t.Fatalf("bit strings malformed: %v %v", r.Secret, r.Recovered)
	}
}

// TestLimitedPointerConfig exercises the MaxSharers machine plumbing.
func TestLimitedPointerConfig(t *testing.T) {
	k := newKernel(machine.Config{Defense: defense.TimeCache, MaxSharers: 1})
	src := `
		movi r1, 0
		movi r2, 20000
	loop:
		addi r1, r1, 1
		blt  r1, r2, loop
		halt
	`
	for i := 0; i < 2; i++ {
		if _, _, err := loadAsm(k, src, kernel.LoadOptions{ShareKey: "lim"}); err != nil {
			t.Fatal(err)
		}
	}
	k.Run(1 << 62)
	if !k.AllExited() {
		t.Fatal("did not finish")
	}
	if firstAccesses(k) == 0 {
		t.Fatal("limited tracker must still produce first accesses")
	}
}

// TestBookkeepingScalingPublic runs the §VI-D slice sweep as a job: a
// longer slice spends a smaller share on s-bit bookkeeping.
func TestBookkeepingScalingPublic(t *testing.T) {
	tab := runJob(t, harness.Job{Experiment: harness.ExpBookkeeping, SliceCycles: []uint64{150_000, 600_000}},
		harness.Options{InstrsPerProc: 40_000, WarmupInstrs: 60_000})
	if len(tab.Rows) != 2 || num(t, tab, 1, 1) >= num(t, tab, 0, 1) {
		t.Fatalf("bookkeeping rows: %v", tab.Rows)
	}
}

// TestDefenseAblationPublic runs the defense ablation as a job.
func TestDefenseAblationPublic(t *testing.T) {
	tab := runJob(t, harness.Job{Experiment: harness.ExpAblation, Pairs: []string{"2Xnamd"}},
		harness.Options{InstrsPerProc: 30_000, WarmupInstrs: 50_000})
	// The ablation rows come from the defense registry in canonical order,
	// with the historical display names for the first five.
	want := []string{"baseline", "timecache", "ftm", "partitioned", "flush-on-switch", "clepsydra", "fase"}
	if len(tab.Rows) != len(want) {
		t.Fatalf("expected %d defenses, got %d", len(want), len(tab.Rows))
	}
	for i, r := range tab.Rows {
		if r[0] != want[i] {
			t.Fatalf("row %d defense = %q, want %q", i, r[0], want[i])
		}
	}
	if _, err := harness.RunJob(harness.Job{Experiment: harness.ExpAblation, Pairs: []string{"nope"}}, harness.Options{}); err == nil {
		t.Fatal("unknown workload must error")
	}
}
