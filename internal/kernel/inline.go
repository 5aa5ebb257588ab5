package kernel

import (
	"fmt"

	"timecache/internal/sim"
)

// RunInline executes fn synchronously in the context of process p on its
// CPU, outside the scheduler loop. The function receives the same Env the
// scheduler would hand to p's Proc, so memory operations go through p's
// address space and hardware context and charge p's core clock.
//
// It is intended for setup and measurement phases that are naturally
// imperative — e.g. an attacker calibrating thresholds or discovering
// eviction sets before the scheduled phase of an experiment — and may only
// be used while the scheduler is idle (no process is Running). A context
// switch (with its TimeCache bookkeeping) is performed if p is not the
// CPU's current process, so s-bit state remains correct.
func (k *Kernel) RunInline(p *Process, fn func(env sim.Env)) error {
	if p.State == Exited {
		return fmt.Errorf("kernel: RunInline on exited process %d", p.PID)
	}
	c := k.cores[p.Core]
	if c.cur != nil {
		return fmt.Errorf("kernel: RunInline while CPU %d is running %q", c.id, c.cur.Name)
	}
	if c.prev != p {
		k.contextSwitch(c, c.prev, p)
	}
	c.prev = nil
	prevState := p.State
	p.State = Running
	c.env.proc = p
	fn(&c.env)
	c.env.proc = nil
	if p.State == Running {
		p.State = prevState
	}
	c.prev = p
	return nil
}
