package cache

import "testing"

// nopDefense is a minimal runtime Defense for seam tests: it counts hook
// invocations and charges a fixed switch cost, touching nothing else.
type nopDefense struct{ stats DefenseStats }

func (d *nopDefense) Name() string        { return "nop" }
func (d *nopDefense) OnAccess(r *Request) { d.stats.Checks++ }
func (d *nopDefense) Reset()              { d.stats = DefenseStats{Name: "nop"} }
func (d *nopDefense) Stats() DefenseStats { return d.stats }
func (d *nopDefense) OnSwitch(core, outPID, inPID int, now uint64) uint64 {
	d.stats.SwitchCycles += 7
	return 7
}

// TestDefenseServeZeroAlloc pins the cost of the defense seam on the
// simulator's hottest path: with the structural kinds (none, timecache) the
// hierarchy carries no runtime defense and Serve must stay at 0 allocs/op
// exactly as before the seam existed, and even with a runtime defense
// installed the per-access hook dispatch itself must not allocate.
func TestDefenseServeZeroAlloc(t *testing.T) {
	cases := []struct {
		name string
		mode SecMode
		def  Defense
	}{
		{"none", SecOff, nil},
		{"timecache", SecTimeCache, nil},
		{"runtime-hook", SecOff, &nopDefense{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultHierarchyConfig()
			cfg.Mode = tc.mode
			h := NewHierarchy(cfg)
			h.SetDefense(tc.def)
			r := new(Request)
			r.Ctx, r.Kind = 0, Load
			var i uint64
			allocs := testing.AllocsPerRun(10_000, func() {
				i++
				r.Now, r.Addr = i, (i%4096)*LineSize
				h.Serve(r)
			})
			if allocs != 0 {
				t.Fatalf("Serve allocated %.1f times per access, want 0", allocs)
			}
		})
	}
}

// TestDefenseSeamHooks pins the seam's contract: every served access runs
// the per-access hook, DefenseSwitch forwards the hook's charge (and is free
// when no runtime defense is installed), and Reset keeps the defense
// installed while resetting its state.
func TestDefenseSeamHooks(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	if c := h.DefenseSwitch(0, 1, 2, 100); c != 0 {
		t.Fatalf("DefenseSwitch with no defense charged %d cycles", c)
	}
	if st := h.DefenseStats(); st.Name != SecOff.String() {
		t.Fatalf("structural DefenseStats = %+v, want zero stats named %q", st, SecOff.String())
	}

	d := &nopDefense{stats: DefenseStats{Name: "nop"}}
	h.SetDefense(d)
	for i := 0; i < 5; i++ {
		h.Access(uint64(1+i), 0, uint64(i)*LineSize, Load)
	}
	if c := h.DefenseSwitch(0, 1, 2, 100); c != 7 {
		t.Fatalf("DefenseSwitch charge = %d, want the hook's 7", c)
	}
	st := h.DefenseStats()
	if st.Checks != 5 || st.SwitchCycles != 7 {
		t.Fatalf("stats = %+v, want 5 checks and 7 switch cycles", st)
	}
	h.Reset()
	if h.Defense() != d {
		t.Fatal("Reset uninstalled the defense")
	}
	if st := h.DefenseStats(); st.Checks != 0 || st.SwitchCycles != 0 {
		t.Fatalf("post-Reset stats = %+v, want zeros", st)
	}
	h.SetDefense(nil)
	if h.Defense() != nil {
		t.Fatal("SetDefense(nil) did not uninstall")
	}
}
