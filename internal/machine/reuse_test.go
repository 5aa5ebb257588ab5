package machine

import (
	"fmt"
	"sync"
	"testing"

	"timecache/internal/cache"
	"timecache/internal/workload"
)

// The tests in this file keep the names of the warm-state snapshot/fork
// tests (see DESIGN.md §13 for why that mechanism is gone). Each now pins
// the part of its contract that outlived the mechanism: an Interrupt at the
// warm point is a pure bystander, a dirty machine reused through Reset or the
// pool replays a cold run exactly, and the pool keeps no snapshot shelf.

// spawnPairWarm installs the runWorkloadPair workloads with a warmup
// boundary: each process calls onWarm once when it crosses warmup
// instructions (nil skips the hook).
func spawnPairWarm(t testing.TB, m *Machine, total, warmup uint64, onWarm func()) {
	t.Helper()
	k := m.Kernel()
	for i, name := range []string{"gobmk", "lbm"} {
		prof, err := workload.Spec(name)
		if err != nil {
			t.Fatal(err)
		}
		as, err := workload.BuildSharedAS(k, prof)
		if err != nil {
			t.Fatal(err)
		}
		proc := workload.NewProc(prof, total, uint64(1001+i*1001))
		proc.Warmup, proc.OnWarm = warmup, onWarm
		if _, err := k.Spawn(name, proc, as, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// finishFingerprint formats the same externally-observable state
// runWorkloadPair fingerprints, for runs whose spawn and Run are split.
func finishFingerprint(m *Machine, cycles uint64) string {
	fp := fmt.Sprintf("cycles=%d stats=%+v", cycles, m.Kernel().Stats)
	for _, c := range m.Hierarchy().Caches() {
		fp += fmt.Sprintf(" %s=%+v", c.Name(), c.Stats)
	}
	return fp
}

// coldFingerprint runs the warm-boundary pair start to finish on a fresh
// machine.
func coldFingerprint(t testing.TB, cfg Config, total, warmup uint64) string {
	t.Helper()
	m := New(cfg)
	spawnPairWarm(t, m, total, warmup, nil)
	return finishFingerprint(m, m.Kernel().Run(1<<62))
}

// runInterruptedAtWarm runs the pair on m, stops it with Kernel.Interrupt
// once both processes are past warmup, checks that the stop really happened
// mid-run, then clears the interrupt and runs the remainder. It returns the
// fingerprint of the finished run.
func runInterruptedAtWarm(t testing.TB, m *Machine, total, warmup uint64) (string, error) {
	k := m.Kernel()
	warmed := 0
	spawnPairWarm(t, m, total, warmup, func() {
		warmed++
		if warmed == 2 {
			k.Interrupt()
		}
	})
	k.Run(1 << 62)
	if warmed != 2 || k.AllExited() {
		return "", fmt.Errorf("warm point not reached mid-run: warmed=%d exited=%v", warmed, k.AllExited())
	}
	k.ClearInterrupt()
	cycles := k.Run(1 << 62) // Run reports the absolute core clock
	if !k.AllExited() {
		return "", fmt.Errorf("resumed run did not finish")
	}
	return finishFingerprint(m, cycles), nil
}

// TestSnapshotForkDeterminism: a run stopped at its warm point and resumed
// is counter-identical to a cold run (the stop is a pure bystander), and the
// finished, dirty machine replays the same run after Reset.
func TestSnapshotForkDeterminism(t *testing.T) {
	cfg := Config{Mode: cache.SecTimeCache, PhysFrames: 8192}
	const total, warmup = 20_000, 15_000
	want := coldFingerprint(t, cfg, total, warmup)

	m := New(cfg)
	got, err := runInterruptedAtWarm(t, m, total, warmup)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("warm-point stop and resume diverged from cold run:\n got %s\nwant %s", got, want)
	}

	m.Reset()
	spawnPairWarm(t, m, total, warmup, nil)
	if got := finishFingerprint(m, m.Kernel().Run(1<<62)); got != want {
		t.Fatalf("dirty machine after Reset diverged from cold run:\n got %s\nwant %s", got, want)
	}
}

// TestSnapshotConcurrentForks runs the warm-point stop-and-resume leg from
// many goroutines on machines of one shared pool (under -race in CI): no two
// legs may share simulator state, so every one must match the cold run.
func TestSnapshotConcurrentForks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Config{Mode: cache.SecTimeCache, PhysFrames: 8192}
	const total, warmup = 20_000, 15_000
	want := coldFingerprint(t, cfg, total, warmup)

	pool := NewPool()
	const goroutines = 8
	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				m := pool.Get(cfg)
				got, err := runInterruptedAtWarm(t, m, total, warmup)
				pool.Put(m)
				if err != nil {
					errc <- fmt.Errorf("goroutine %d iter %d: %v", g, i, err)
					return
				}
				if got != want {
					errc <- fmt.Errorf("goroutine %d iter %d: pooled leg diverged:\n got %s\nwant %s", g, i, got, want)
					return
				}
			}
			errc <- nil
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPoolForkAndSnapshotShelf pins the pool's reuse surface now that it
// shelves no snapshots: a machine put back dirty is handed out again, reset,
// and replays the cold run; the hit/miss counters move; and SnapshotHits and
// SnapshotMisses stay 0, as PoolStats documents.
func TestPoolForkAndSnapshotShelf(t *testing.T) {
	cfg := Config{Mode: cache.SecTimeCache, PhysFrames: 8192}
	const total, warmup = 20_000, 15_000
	want := coldFingerprint(t, cfg, total, warmup)

	p := NewPool()
	m1 := p.Get(cfg)
	spawnPairWarm(t, m1, total, warmup, nil)
	if got := finishFingerprint(m1, m1.Kernel().Run(1<<62)); got != want {
		t.Fatalf("pooled machine (fresh) diverged:\n got %s\nwant %s", got, want)
	}
	p.Put(m1)
	m2 := p.Get(cfg)
	if m2 != m1 {
		t.Fatal("pool did not reuse the idle machine")
	}
	spawnPairWarm(t, m2, total, warmup, nil)
	if got := finishFingerprint(m2, m2.Kernel().Run(1<<62)); got != want {
		t.Fatalf("pooled machine (reused) diverged:\n got %s\nwant %s", got, want)
	}
	p.Put(m2)

	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("pool stats = %+v, want 1 hit / 1 miss", s)
	}
	if s.SnapshotHits != 0 || s.SnapshotMisses != 0 {
		t.Fatalf("snapshot counters moved on a pool with no shelf: %+v", s)
	}
}

// TestForkRestoreAllocs pins the allocation behavior of the machine-reuse
// path: once a machine has run a leg and owns its buffers, Reset returns it
// to cold state in place, without a single allocation.
func TestForkRestoreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	cfg := Config{Mode: cache.SecTimeCache, PhysFrames: 8192}
	m := New(cfg)
	runWorkloadPair(t, m)
	m.Reset()
	if n := testing.AllocsPerRun(10, m.Reset); n != 0 {
		t.Errorf("Machine.Reset allocates %v per call on a used machine, want 0", n)
	}
}
