package defense

import (
	"fmt"
	"testing"

	"timecache/internal/cache"
	"timecache/internal/core"
)

// TestRegistryKinds pins the registry surface: the canonical kind order
// (which the matrix job's default defense set and the ablation row order
// inherit), validity checks, and the static configuration each kind routes
// to. A reordering here is a fingerprint-visible change.
func TestRegistryKinds(t *testing.T) {
	wantOrder := []string{None, TimeCache, FTM, DAWGLite, FlushOnSwitch, Clepsydra, FASE}
	got := Kinds()
	if len(got) != len(wantOrder) {
		t.Fatalf("Kinds() = %v, want %v", got, wantOrder)
	}
	for i, k := range wantOrder {
		if got[i] != k {
			t.Fatalf("Kinds()[%d] = %q, want %q", i, got[i], k)
		}
		if !Valid(k) {
			t.Errorf("Valid(%q) = false", k)
		}
	}
	if Valid("no-such-defense") {
		t.Error("Valid accepted an unknown kind")
	}

	wantStatic := map[string]Static{
		None:          {Mode: cache.SecOff},
		TimeCache:     {Mode: cache.SecTimeCache},
		FTM:           {Mode: cache.SecFTM},
		DAWGLite:      {Mode: cache.SecOff, Partitioned: true},
		FlushOnSwitch: {Mode: cache.SecOff, FlushOnSwitch: true},
		Clepsydra:     {Mode: cache.SecOff},
		FASE:          {Mode: cache.SecOff},
	}
	for kind, want := range wantStatic {
		st, err := StaticOf(kind)
		if err != nil {
			t.Fatalf("StaticOf(%q): %v", kind, err)
		}
		if st != want {
			t.Errorf("StaticOf(%q) = %+v, want %+v", kind, st, want)
		}
	}
	if _, err := StaticOf("no-such-defense"); err == nil {
		t.Error("StaticOf accepted an unknown kind")
	}

	for mode, want := range map[cache.SecMode]string{
		cache.SecOff:       None,
		cache.SecTimeCache: TimeCache,
		cache.SecFTM:       FTM,
	} {
		if got := KindOfMode(mode); got != want {
			t.Errorf("KindOfMode(%v) = %q, want %q", mode, got, want)
		}
	}
}

// TestNewRuntimeKinds: the five historical mechanisms are pure-static (no
// runtime Defense, so the hot path keeps its nil check), the two new ones
// construct runtimes that report their registry name, and an unvalidated
// kind panics rather than silently running undefended.
func TestNewRuntimeKinds(t *testing.T) {
	h := cache.NewHierarchy(cache.DefaultHierarchyConfig())
	static := map[string]bool{None: true, TimeCache: true, FTM: true, DAWGLite: true, FlushOnSwitch: true}
	for _, kind := range Kinds() {
		d := NewRuntime(kind, h)
		if static[kind] {
			if d != nil {
				t.Errorf("NewRuntime(%q) = %T, want nil (pure-static kind)", kind, d)
			}
			continue
		}
		if d == nil {
			t.Fatalf("NewRuntime(%q) = nil, want a runtime defense", kind)
		}
		if d.Name() != kind {
			t.Errorf("NewRuntime(%q).Name() = %q", kind, d.Name())
		}
		if s := d.Stats(); s.Name != kind || s.Checks != 0 || s.Evictions != 0 || s.SwitchCycles != 0 {
			t.Errorf("fresh %q stats = %+v, want named zeros", kind, s)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewRuntime with an unknown kind did not panic")
		}
	}()
	NewRuntime("no-such-defense", h)
}

// TestClepsydraTTLEviction drives the hierarchy directly: a line hits inside
// its TTL window and is evicted by the per-access hook once the deadline
// passes, so the re-access pays the full cold-miss latency again.
func TestClepsydraTTLEviction(t *testing.T) {
	h := cache.NewHierarchy(cache.DefaultHierarchyConfig())
	d := NewRuntime(Clepsydra, h)
	h.SetDefense(d)
	const addr = 0x1000

	cold := h.Access(1, 0, addr, cache.Load)
	if cold.Hit {
		t.Fatal("first access must miss")
	}
	if r := h.Access(100, 0, addr, cache.Load); !r.Hit {
		t.Fatal("re-access inside the TTL window must hit")
	}
	// Past base TTL + max jitter the hook must expire the line before serving.
	late := uint64(1 + clepsydraBaseTTL + clepsydraJitterMask + 1)
	r := h.Access(late, 0, addr, cache.Load)
	if r.Hit || r.Latency != cold.Latency {
		t.Fatalf("post-TTL access = %+v, want a full cold miss (latency %d)", r, cold.Latency)
	}
	if s := d.Stats(); s.Evictions != 1 {
		t.Fatalf("clepsydra stats = %+v, want exactly 1 eviction", s)
	}
}

// TestFASESelectiveFlush: the switch-in hook evicts exactly the L1 lines the
// incoming process does not own, charges core.SelectiveFlushCost for them,
// and keeps the incoming process's own working set warm.
func TestFASESelectiveFlush(t *testing.T) {
	h := cache.NewHierarchy(cache.DefaultHierarchyConfig())
	d := NewRuntime(FASE, h)
	h.SetDefense(d)

	// Switch in PID 7 and let it touch two lines.
	if c := h.DefenseSwitch(0, 0, 7, 0); c != core.SelectiveFlushCost(0) {
		t.Fatalf("first switch-in cost = %d, want %d (empty walk)", c, core.SelectiveFlushCost(0))
	}
	h.Access(10, 0, 0x1000, cache.Load)
	h.Access(20, 0, 0x2000, cache.Load)

	// Switch in PID 9: both of PID 7's lines must go.
	if c, want := h.DefenseSwitch(0, 7, 9, 1000), core.SelectiveFlushCost(2); c != want {
		t.Fatalf("switch-in over 2 foreign lines cost = %d, want %d", c, want)
	}
	if r := h.Access(1100, 0, 0x1000, cache.Load); r.Hit {
		t.Fatal("foreign line survived a FASE switch-in")
	}
	// That access stamped 0x1000 for PID 9; a same-PID reschedule keeps it,
	// so the walk finds nothing to evict.
	if c, want := h.DefenseSwitch(0, 9, 9, 2000), core.SelectiveFlushCost(0); c != want {
		t.Fatalf("reschedule cost = %d, want %d", c, want)
	}
	if r := h.Access(2100, 0, 0x1000, cache.Load); !r.Hit {
		t.Fatal("own line did not survive a FASE switch-in")
	}
	st := d.Stats()
	if st.Evictions == 0 || st.SwitchCycles == 0 || st.Checks == 0 {
		t.Fatalf("fase stats = %+v, want nonzero counters", st)
	}
}

// driveDefense runs a deterministic access/switch pattern against h and
// returns a fingerprint of everything observable: per-access hit/latency,
// switch charges, and the defense's own counters.
func driveDefense(h *cache.Hierarchy, d cache.Defense) string {
	fp := ""
	now := uint64(1)
	h.DefenseSwitch(0, 0, 3, now)
	for i := 0; i < 64; i++ {
		now += 50
		addr := uint64(0x1000 + (i%16)*cache.LineSize)
		r := h.Access(now, 0, addr, cache.Load)
		fp += fmt.Sprintf("%v/%d ", r.Hit, r.Latency)
		if i%16 == 15 {
			now += 1000
			fp += fmt.Sprintf("sw=%d ", h.DefenseSwitch(0, 3+i%2, 4-i%2, now))
		}
	}
	return fp + fmt.Sprintf("stats=%+v", d.Stats())
}

// TestDefenseResetDeterminism is the pooled-reuse contract at the defense
// layer: Hierarchy.Reset keeps the runtime defense installed, returns it to
// its freshly constructed state, and a re-run replays identically.
func TestDefenseResetDeterminism(t *testing.T) {
	for _, kind := range []string{Clepsydra, FASE} {
		t.Run(kind, func(t *testing.T) {
			build := func() (*cache.Hierarchy, cache.Defense) {
				h := cache.NewHierarchy(cache.DefaultHierarchyConfig())
				d := NewRuntime(kind, h)
				h.SetDefense(d)
				return h, d
			}
			h1, d1 := build()
			fresh := driveDefense(h1, d1)
			h2, d2 := build()
			if got := driveDefense(h2, d2); got != fresh {
				t.Fatalf("two fresh runs disagree:\n got %s\nwant %s", got, fresh)
			}
			h2.Reset()
			if h2.Defense() != d2 {
				t.Fatal("Hierarchy.Reset uninstalled the runtime defense")
			}
			if got := driveDefense(h2, d2); got != fresh {
				t.Fatalf("post-Reset run diverged from fresh:\n got %s\nwant %s", got, fresh)
			}
		})
	}
}
