package machine

import (
	"fmt"
	"testing"

	"timecache/internal/cache"
	"timecache/internal/defense"
)

// TestDefenseConfigMapping pins the Config.Defense routing (static()): the
// three kinds that share a name with a Mode map to exactly the
// hierarchy/kernel configuration that Mode produces, a set Defense overrides
// Mode entirely, dawg-lite and flush-on-switch set their structural flags,
// and New installs a runtime defense for — and only for — the kinds that
// declare one.
func TestDefenseConfigMapping(t *testing.T) {
	byMode := map[string]Config{
		defense.None:      {},
		defense.TimeCache: {Mode: cache.SecTimeCache},
		defense.FTM:       {Mode: cache.SecFTM},
	}
	for kind, want := range byMode {
		cfg := Config{Defense: kind}
		if got, w := cfg.HierarchyConfig(), want.HierarchyConfig(); got != w {
			t.Errorf("%s: HierarchyConfig\n got %+v\nwant %+v", kind, got, w)
		}
		if got, w := cfg.KernelConfig(), want.KernelConfig(); got != w {
			t.Errorf("%s: KernelConfig\n got %+v\nwant %+v", kind, got, w)
		}
	}

	// A set Defense is authoritative: Mode is ignored, never merged.
	over := Config{Defense: defense.None, Mode: cache.SecTimeCache}
	if got, want := over.HierarchyConfig(), (Config{}).HierarchyConfig(); got != want {
		t.Errorf("Defense did not override Mode:\n got %+v\nwant %+v", got, want)
	}

	if h := (Config{Defense: defense.DAWGLite}).HierarchyConfig(); !h.Partitioned || h.Mode != cache.SecOff {
		t.Errorf("dawg-lite: HierarchyConfig %+v, want partitioned with no s-bits", h)
	}
	if k := (Config{Defense: defense.FlushOnSwitch}).KernelConfig(); !k.FlushOnSwitch {
		t.Errorf("flush-on-switch: KernelConfig %+v, want FlushOnSwitch", k)
	}

	runtime := map[string]bool{defense.Clepsydra: true, defense.FASE: true}
	for _, kind := range defense.Kinds() {
		m := New(Config{Defense: kind, PhysFrames: 8192})
		d := m.Hierarchy().Defense()
		if runtime[kind] {
			if d == nil || d.Name() != kind {
				t.Errorf("New(%s) installed defense %v, want runtime %q", kind, d, kind)
			}
			if st := m.Hierarchy().DefenseStats(); st.Name != kind {
				t.Errorf("DefenseStats().Name = %q, want %q", st.Name, kind)
			}
		} else if d != nil {
			t.Errorf("New(%s) installed runtime defense %q, want structural-only", kind, d.Name())
		}
	}
}

// TestDefenseConfigEquivalence is the byte-identity claim at the machine
// layer: for each kind that shares a name with a Mode, a machine configured
// through the registry spelling runs cycle- and counter-identical to one
// configured through the Mode.
func TestDefenseConfigEquivalence(t *testing.T) {
	cases := []struct {
		kind string
		mode cache.SecMode
	}{
		{defense.None, cache.SecOff},
		{defense.TimeCache, cache.SecTimeCache},
		{defense.FTM, cache.SecFTM},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			want := runWorkloadPair(t, New(Config{Mode: tc.mode, PhysFrames: 8192}))
			got := runWorkloadPair(t, New(Config{Defense: tc.kind, PhysFrames: 8192}))
			if got != want {
				t.Errorf("registry spelling diverged from Mode:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// defenseFingerprint extends runWorkloadPair's fingerprint with the runtime
// defense's own counters, so a stale TTL table or ownership map that
// happens not to move the cycle count still fails the comparison.
func defenseFingerprint(t testing.TB, m *Machine) string {
	return runWorkloadPair(t, m) + fmt.Sprintf(" def=%+v", m.Hierarchy().DefenseStats())
}

// TestDefenseResetDeterminism extends the pooling contract to runtime
// defenses: a Reset (and a pooled Get-after-Put) machine carrying clepsydra
// or fase state must replay exactly like a fresh machine.
func TestDefenseResetDeterminism(t *testing.T) {
	for _, kind := range []string{defense.Clepsydra, defense.FASE} {
		t.Run(kind, func(t *testing.T) {
			cfg := Config{Defense: kind, PhysFrames: 8192}
			fresh := defenseFingerprint(t, New(cfg))

			m := New(cfg)
			if got := defenseFingerprint(t, m); got != fresh {
				t.Fatalf("two fresh machines disagree:\n got %s\nwant %s", got, fresh)
			}
			m.Reset()
			if m.Hierarchy().Defense() == nil {
				t.Fatal("Reset uninstalled the runtime defense")
			}
			if got := defenseFingerprint(t, m); got != fresh {
				t.Fatalf("reset machine diverged from fresh:\n got %s\nwant %s", got, fresh)
			}

			pool := NewPool()
			p1 := pool.Get(cfg)
			defenseFingerprint(t, p1)
			pool.Put(p1)
			p2 := pool.Get(cfg)
			if p2 != p1 {
				t.Fatal("pool did not reuse the machine for the defense config")
			}
			if got := defenseFingerprint(t, p2); got != fresh {
				t.Fatalf("pooled machine diverged from fresh:\n got %s\nwant %s", got, fresh)
			}
		})
	}
}
