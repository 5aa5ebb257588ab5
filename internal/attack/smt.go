package attack

import (
	"fmt"

	"timecache/internal/cache"
	"timecache/internal/machine"
	"timecache/internal/sim"
)

// RunSMT mounts a flush+reload attack from a hyperthread: attacker and
// victim run simultaneously on the two hardware threads of one core,
// sharing the L1 caches. The paper's threat model (§III) explicitly covers
// this placement: per-hardware-context s-bits deny the attacker reuse hits
// even on the same physical core, with no context switches involved. The
// scenario is one physical core with two hardware threads, so cfg.Cores and
// cfg.ThreadsPerCore are forced.
func RunSMT(cfg machine.Config, nbits int, seed uint64) (SecretResult, error) {
	cfg.Cores, cfg.ThreadsPerCore = 1, 2
	m := NewMachine(cfg)

	asA, err := m.MapSharedAt("smt", cache.LineSize)
	if err != nil {
		return SecretResult{}, err
	}
	asV, err := m.MapSharedAt("smt", cache.LineSize)
	if err != nil {
		return SecretResult{}, err
	}
	secret := secretBits(nbits, seed)

	// Synchronize by period: the victim touches (or not) mid-window, the
	// attacker probes at window end. Both threads run concurrently; there
	// are no context switches, so the defense rests purely on the per-
	// hardware-context s-bits.
	const period = 50_000
	att := &smtProber{target: sharedBase, rounds: nbits, period: period, threshold: m.HitThreshold()}
	vic := &coherenceVictim{target: sharedBase, bits: secret, period: period, loadOnly: true}
	// Thread 0 = logical CPU 0, thread 1 = logical CPU 1 (same core).
	if _, err := m.K.Spawn("smt-attacker", att, asA, 0); err != nil {
		return SecretResult{}, err
	}
	if _, err := m.K.Spawn("smt-victim", vic, asV, 1); err != nil {
		return SecretResult{}, err
	}
	m.K.Run(uint64(nbits+4) * period * 4)
	if !m.K.AllExited() {
		return SecretResult{}, fmt.Errorf("attack: SMT attack did not finish")
	}
	return scoreSecret(secret, att.obs), nil
}

// smtProber is the hyperthread attacker: flush, wait within the window,
// timed reload.
type smtProber struct {
	target    uint64
	rounds    int
	period    uint64
	threshold uint64

	round int
	phase int
	obs   []bool
}

func (a *smtProber) Step(env sim.Env) bool {
	switch a.phase {
	case 0:
		if a.round >= a.rounds {
			env.Syscall(sim.SysExit, 0)
			return false
		}
		env.Flush(a.target)
		env.Instret(2)
		a.phase = 1
		env.Syscall(sim.SysSleep, a.period)
	case 1:
		t0 := env.Now()
		env.Load(a.target)
		lat := env.Now() - t0
		env.Instret(4)
		a.obs = append(a.obs, lat <= a.threshold)
		a.round++
		a.phase = 0
	}
	return true
}
