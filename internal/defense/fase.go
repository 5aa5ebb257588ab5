package defense

import (
	"timecache/internal/cache"
	"timecache/internal/core"
)

// FASE-style selective flushing (arXiv:2204.05508): at each context switch
// the switching core's private caches are walked and every line not owned
// by the incoming process is invalidated, so a resumed attacker finds none
// of the victim's lines to observe while keeping its own working set warm
// (unlike flush-on-switch, which discards everything). The shared LLC is
// left alone, as in the proposal's per-core scope.
//
// Ownership is tracked per (core, line): the per-access hook stamps the
// accessed line with the PID currently running on the accessing core, and
// the switch hook evicts the core's L1 lines whose stamp differs from the
// incoming PID, visiting lines in cache index order (deterministic — map
// lookups decide, map iteration never does). Lines resident but never
// demand-accessed since fill (next-line prefetches) carry no stamp and are
// flushed conservatively. With SMT the stamp is the core's most recently
// switched-in PID, a model simplification the SMT attack scenario measures.
// The switch charge uses core.SelectiveFlushCost: a fixed walk setup plus a
// small per-invalidated-line increment.
type faseDefense struct {
	h *cache.Hierarchy
	// cur is the PID most recently switched in on each core (0 before the
	// first switch).
	cur []int32
	// owner maps faseKey(core, lineAddr) to the last PID that touched the
	// line on that core.
	owner map[uint64]int32
	stats cache.DefenseStats
}

func newFASE(h *cache.Hierarchy) cache.Defense {
	return &faseDefense{
		h:     h,
		cur:   make([]int32, h.Config().Cores),
		owner: make(map[uint64]int32),
		stats: cache.DefenseStats{Name: FASE},
	}
}

// faseKey tags a line address with its core; physical line addresses are
// far below 2^48, so the tag cannot collide.
func faseKey(corei int, lineAddr uint64) uint64 {
	return lineAddr | uint64(corei+1)<<48
}

func (d *faseDefense) Name() string { return FASE }

func (d *faseDefense) OnAccess(r *cache.Request) {
	corei := d.h.CoreOf(r.Ctx)
	pid := d.cur[corei]
	if pid == 0 {
		return // no process has been switched in yet (cold boot accesses)
	}
	d.stats.Checks++
	d.owner[faseKey(corei, r.Addr&^(cache.LineSize-1))] = pid
}

func (d *faseDefense) OnSwitch(corei, outPID, inPID int, now uint64) uint64 {
	if inPID == 0 {
		return 0 // deschedule with nothing incoming: defer to the next switch-in
	}
	d.cur[corei] = int32(inPID)
	in := int32(inPID)
	flushed := d.h.EvictCoreL1(corei, func(lineAddr uint64) bool {
		return d.owner[faseKey(corei, lineAddr)] == in
	})
	cost := core.SelectiveFlushCost(flushed)
	d.stats.Evictions += uint64(flushed)
	d.stats.SwitchCycles += cost
	return cost
}

func (d *faseDefense) Reset() {
	clear(d.cur)
	clear(d.owner)
	d.stats = cache.DefenseStats{Name: FASE}
}

func (d *faseDefense) Stats() cache.DefenseStats { return d.stats }
