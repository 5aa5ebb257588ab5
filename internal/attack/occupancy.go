package attack

import (
	"fmt"

	"timecache/internal/cache"
	"timecache/internal/kernel"
	"timecache/internal/machine"
	"timecache/internal/sim"
)

// RunLLCOccupancy mounts an LLC occupancy (cache contention) channel: no
// shared memory, no flush instruction, no eviction-set construction. The
// victim on core 1 modulates its working-set size with the secret — an
// LLC-sized sweep for a 1 bit, a few lines for a 0 bit — while the
// attacker on core 0 repeatedly sweeps a private quarter-LLC buffer and
// times the whole sweep: when the victim filled the cache the attacker's
// lines were evicted and the sweep runs at DRAM speed. The two alternate
// in fixed windows, so each timed sweep observes exactly one secret bit.
//
// The channel leaks through aggregate occupancy rather than per-line reuse,
// which is precisely what address-based defenses (s-bits, per-core presence
// bits, index randomization) do not target; way partitioning or TTL-based
// eviction do break it. The matrix experiment exists to make that
// distinction visible. Cores is forced to 2.
func RunLLCOccupancy(cfg machine.Config, nbits int, seed uint64) (SecretResult, error) {
	cfg.Cores = 2
	m := NewMachine(cfg)
	hcfg := m.K.Hierarchy().Config()
	llcLines := uint64(hcfg.LLCSize) / cache.LineSize

	// A window must fit the victim's full-LLC sweep even when every load
	// misses to DRAM; 300 cycles per line bounds that comfortably.
	period := llcLines * 300

	const attBase, vicBase = 0x6000_0000, 0x7000_0000
	attBytes := uint64(hcfg.LLCSize) / 4
	vicBytes := uint64(hcfg.LLCSize)

	asA := kernel.NewAddressSpace(m.K.Physical())
	if err := asA.MapAnon(attBase, attBytes, true); err != nil {
		return SecretResult{}, err
	}
	asV := kernel.NewAddressSpace(m.K.Physical())
	if err := asV.MapAnon(vicBase, vicBytes, true); err != nil {
		return SecretResult{}, err
	}
	lineSeq := func(base, bytes uint64) []uint64 {
		seq := make([]uint64, 0, bytes/cache.LineSize)
		for off := uint64(0); off < bytes; off += cache.LineSize {
			seq = append(seq, base+off)
		}
		return seq
	}

	secret := secretBits(nbits, seed)
	big := lineSeq(vicBase, vicBytes)
	att := &occupancySweeper{buf: lineSeq(attBase, attBytes), rounds: nbits, period: period}
	vic := &occupancyVictim{big: big, small: big[:16], bits: secret, period: period}
	if _, err := m.K.Spawn("occ-attacker", att, asA, 0); err != nil {
		return SecretResult{}, err
	}
	if _, err := m.K.Spawn("occ-victim", vic, asV, 1); err != nil {
		return SecretResult{}, err
	}
	m.K.Run(uint64(2*nbits+6) * period)
	if !m.K.AllExited() {
		return SecretResult{}, fmt.Errorf("attack: LLC occupancy attack did not finish")
	}

	// Classify each timed sweep against the midpoint of the observed range:
	// a live channel is strongly bimodal (all-hit vs all-miss sweeps), and
	// a dead one collapses every reading onto one side of the midpoint.
	lo, hi := att.lat[0], att.lat[0]
	for _, l := range att.lat {
		lo, hi = min(lo, l), max(hi, l)
	}
	threshold := (lo + hi) / 2
	recovered := make([]bool, len(att.lat))
	for i, l := range att.lat {
		recovered[i] = l > threshold
	}
	return scoreSecret(secret, recovered), nil
}

// sleepUntil parks the process until the absolute cycle target (no-op if
// the target already passed — the window overran, and the next phase just
// starts late).
func sleepUntil(env sim.Env, target uint64) {
	if now := env.Now(); now < target {
		env.Syscall(sim.SysSleep, target-now)
	}
}

// occupancyVictim sweeps its big or small buffer in window [(2r+1)P,
// (2r+2)P) according to secret bit r.
type occupancyVictim struct {
	big, small []uint64
	bits       []bool
	period     uint64

	started bool
	round   int
}

func (v *occupancyVictim) Step(env sim.Env) bool {
	if !v.started {
		v.started = true
		// Window 0 belongs to the attacker's warm-up sweep.
		sleepUntil(env, v.period)
		return true
	}
	if v.round >= len(v.bits) {
		return false
	}
	buf := v.small
	if v.bits[v.round] {
		buf = v.big
	}
	for _, a := range buf {
		env.Load(a)
	}
	env.Instret(uint64(len(buf)))
	v.round++
	sleepUntil(env, uint64(2*v.round+1)*v.period)
	return true
}

// occupancySweeper warms its buffer in window [0, P), then times one full
// sweep per window [(2r+2)P, (2r+3)P).
type occupancySweeper struct {
	buf    []uint64
	rounds int
	period uint64

	phase int
	round int
	lat   []uint64
}

func (a *occupancySweeper) Step(env sim.Env) bool {
	if a.phase == 0 {
		for _, addr := range a.buf {
			env.Load(addr)
		}
		env.Instret(uint64(len(a.buf)))
		a.phase = 1
		sleepUntil(env, 2*a.period)
		return true
	}
	if a.round >= a.rounds {
		return false
	}
	start := env.Now()
	for _, addr := range a.buf {
		env.Load(addr)
	}
	env.Instret(uint64(len(a.buf)))
	a.lat = append(a.lat, env.Now()-start)
	a.round++
	sleepUntil(env, uint64(2*a.round+2)*a.period)
	return true
}
