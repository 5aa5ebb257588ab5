// The Defense seam: a pluggable per-access / per-switch security mechanism
// hook at the served-request trail. The built-in mechanisms — TimeCache
// s-bits (core.Tracker), FTM presence bits, DAWG-lite way partitioning,
// flush-on-switch — are wired structurally into the hierarchy and kernel by
// HierarchyConfig/kernel.Config and install no runtime Defense, so their hot
// paths are exactly the historical ones (one nil check per access, like the
// Observer). Defenses that need per-access state of their own (ClepsydraCache
// time-based eviction, FASE selective flushing) implement Defense and are
// installed with SetDefense; internal/defense owns the registry.
package cache

// Defense is a runtime security mechanism attached to the hierarchy. All
// hooks run synchronously on the simulation's hot paths and must be
// deterministic: no wall clock, no map iteration for decisions, no
// randomness beyond seeds derived from the access stream.
type Defense interface {
	// Name returns the defense kind (the registry name).
	Name() string
	// OnAccess runs before the access described by r's input fields (Now,
	// Ctx, Addr, Kind) is served, so state changes it makes (e.g. a
	// time-based eviction) are visible to this access. It must not touch
	// r's response fields and must not retain r.
	OnAccess(r *Request)
	// OnSwitch runs once per charged context switch on the switching core,
	// after the OS has updated the active security domain. outPID/inPID are
	// zero when no process occupies that side. The returned cycles are
	// charged to the switching core inside the switch window.
	OnSwitch(core, outPID, inPID int, now uint64) uint64
	// Reset returns the defense to its freshly constructed state; pooled
	// machine reuse depends on reset-equals-fresh.
	Reset()
	// Stats returns a snapshot of the defense's own counters.
	Stats() DefenseStats
}

// DefenseStats counts a runtime defense's actions. Structural defenses
// (s-bits, partitioning) account through the existing cache/kernel counters
// instead.
type DefenseStats struct {
	Name string
	// Evictions is the number of lines the defense itself invalidated.
	Evictions uint64
	// SwitchCycles is the total extra switch-time cycles the defense charged.
	SwitchCycles uint64
	// Checks counts per-access hook invocations that inspected state.
	Checks uint64
}

// SetDefense installs (or, with nil, removes) the runtime defense. Unlike
// the observer, an installed defense is part of the machine's configured
// behavior: Reset resets its state but keeps it installed.
func (h *Hierarchy) SetDefense(d Defense) { h.def = d }

// Defense returns the installed runtime defense, nil when the configured
// mechanism is structural.
func (h *Hierarchy) Defense() Defense { return h.def }

// DefenseStats returns the installed defense's counters, or a zero snapshot
// naming the structural mode when no runtime defense is installed.
func (h *Hierarchy) DefenseStats() DefenseStats {
	if h.def != nil {
		return h.def.Stats()
	}
	return DefenseStats{Name: h.cfg.Mode.String()}
}

// DefenseSwitch runs the installed defense's context-switch hook and returns
// the cycles to charge; zero when no runtime defense is installed. The
// kernel calls it once per charged switch, inside the switch window.
func (h *Hierarchy) DefenseSwitch(core, outPID, inPID int, now uint64) uint64 {
	if h.def == nil {
		return 0
	}
	return h.def.OnSwitch(core, outPID, inPID, now)
}

// EvictLine invalidates lineAddr at every level through the directory-safe
// flush path, reporting whether any copy was resident and whether a dirty
// copy had to be written back. Defense implementations use it for
// time-based (Clepsydra-style) evictions; unlike ServeFlush it charges no
// latency — the modeled eviction happens in background hardware.
func (h *Hierarchy) EvictLine(lineAddr uint64) (present, dirty bool) {
	return h.flushLine(lineAddr &^ (LineSize - 1))
}

// EvictCoreL1 invalidates every valid line in core's L1I and L1D for which
// keep returns false (keep == nil evicts everything), returning the number
// of lines evicted. Lines are visited in cache index order, so the eviction
// sequence is deterministic. Modified lines are written back into the LLC
// and the sharer directory is updated, exactly as capacity evictions do.
// FASE-style selective flushing uses it at context switches.
func (h *Hierarchy) EvictCoreL1(core int, keep func(lineAddr uint64) bool) int {
	n := h.evictL1Lines(h.l1i[core], core, true, keep)
	n += h.evictL1Lines(h.l1d[core], core, false, keep)
	return n
}

func (h *Hierarchy) evictL1Lines(l1 *Cache, core int, inst bool, keep func(uint64) bool) int {
	n := 0
	for idx := range l1.lines {
		l := &l1.lines[idx]
		if l.st == invalid || (keep != nil && keep(l.tag)) {
			continue
		}
		h.evictL1Line(l1, idx, core, inst)
		l1.invalidate(idx)
		if h.cfg.CoherenceCheck {
			h.verifyLine(l.tag, "evictCoreL1")
		}
		n++
	}
	return n
}
