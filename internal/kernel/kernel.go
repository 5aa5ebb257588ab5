package kernel

import (
	"context"
	"fmt"
	"sync/atomic"

	"timecache/internal/cache"
	"timecache/internal/clock"
	"timecache/internal/core"
	"timecache/internal/mem"
	"timecache/internal/sim"
)

// Config controls kernel behavior.
type Config struct {
	// SliceCycles is the scheduler time slice.
	SliceCycles uint64
	// SwitchBaseCycles is the context switch cost excluding TimeCache
	// bookkeeping (register save, scheduler work).
	SwitchBaseCycles uint64
	// MinorFaultCycles is charged when a COW page is copied.
	MinorFaultCycles uint64
	// Cost models the s-bit save/restore charged per switch when the
	// hierarchy runs in TimeCache mode.
	Cost core.CostModel
	// FlushOnSwitch flushes every cache at each context switch (the
	// baseline defense the paper contrasts with, §IV-C).
	FlushOnSwitch bool
	// KernelLinesPerSyscall is how many shared kernel-text lines each
	// syscall touches in the calling process's context; this models the
	// kernel-space sharing the paper identifies as a first-access source.
	KernelLinesPerSyscall int
	// KernelTextLines is the size of the kernel text region in lines.
	KernelTextLines int
}

// DefaultConfig returns kernel parameters sized for the simulator's scale.
func DefaultConfig() Config {
	return Config{
		SliceCycles:           200_000,
		SwitchBaseCycles:      2_000,
		MinorFaultCycles:      600,
		Cost:                  core.DefaultCostModel(),
		KernelLinesPerSyscall: 8,
		KernelTextLines:       512, // 32 KB of kernel text
	}
}

// Stats aggregates kernel-wide accounting.
type Stats struct {
	ContextSwitches uint64
	// BookkeepingCycles is the total cycles charged for s-bit save/restore
	// (the 0.02% component of the paper's 1.13% overhead).
	BookkeepingCycles uint64
	// SwitchCycles is total context-switch cost including bookkeeping.
	SwitchCycles uint64
	COWBreaks    uint64
	Syscalls     uint64
	DedupMerged  uint64
	Migrations   uint64
}

// Delta returns the counter advance since an earlier snapshot.
func (s Stats) Delta(before Stats) Stats {
	return Stats{
		ContextSwitches:   s.ContextSwitches - before.ContextSwitches,
		BookkeepingCycles: s.BookkeepingCycles - before.BookkeepingCycles,
		SwitchCycles:      s.SwitchCycles - before.SwitchCycles,
		COWBreaks:         s.COWBreaks - before.COWBreaks,
		Syscalls:          s.Syscalls - before.Syscalls,
		DedupMerged:       s.DedupMerged - before.DedupMerged,
		Migrations:        s.Migrations - before.Migrations,
	}
}

// SwitchEvent describes one context switch for telemetry probes.
type SwitchEvent struct {
	Core            int
	OutPID, InPID   int // zero when no process on that side
	OutName, InName string
	// Start and End bracket the whole switch on the core's clock.
	Start, End uint64
	// BookkeepStart and BookkeepEnd bracket the cycles charged for the
	// TimeCache s-bit save/restore DMA inside the switch (equal when the
	// hierarchy has no per-switch bookkeeping).
	BookkeepStart, BookkeepEnd uint64
}

// Probe observes scheduler-level events. All callbacks run synchronously
// inside the scheduler loop; when no probe is installed each hook costs a
// single nil check. AfterStep fires after every Proc.Step, OnRunSpan when a
// process is descheduled (one on-core occupancy span), and OnContextSwitch
// once per charged context switch.
type Probe interface {
	AfterStep(core int, now uint64)
	OnContextSwitch(ev SwitchEvent)
	OnRunSpan(core, pid int, name string, start, end uint64)
}

// coreState is one schedulable hardware context's state: with SMT the
// kernel sees every hardware thread as a logical CPU with its own run
// queue and clock, while sibling threads share L1 caches in the hierarchy.
type coreState struct {
	id    int // logical CPU id == global hardware context id
	ctx   int // global hardware context driven by this CPU
	clock clock.Clock
	runq  []*Process
	cur   *Process
	// prev is the most recently descheduled process; its s-bit columns are
	// still in the hardware and must be saved at the next context switch.
	prev *Process
	// sliceEnd is the preemption deadline for cur.
	sliceEnd uint64
	// sliceInstrs counts instructions in the current slice (debug/stats).
	sliceInstrs uint64
	// runStart is the clock when cur was scheduled in (telemetry spans).
	runStart uint64

	// secCaches and secLineCounts are the caches whose s-bit columns this
	// context saves/restores at each switch, precomputed at kernel
	// construction so the switch path does not allocate.
	secCaches     []cache.CacheCtx
	secLineCounts []int
	// switchCost is the fixed per-switch s-bit bookkeeping charge for this
	// context's caches under the configured cost model.
	switchCost uint64

	// req is this CPU's long-lived memory request: every access the core
	// issues (process loads/stores/fetches, kernel text touches, flushes)
	// reuses it, so the per-access path performs no allocation even though
	// the hierarchy hands the request to observers through an interface.
	req cache.Request
	// env is the Env handed to the process on this CPU. Its proc is set
	// when a process is scheduled in and cleared when it leaves, so the
	// per-instruction path hands the Proc a long-lived pointer instead of
	// allocating one per step.
	env procEnv
}

// setCur puts p on the CPU (nil takes the current process off), pointing
// the CPU's Env at it.
func (c *coreState) setCur(p *Process) {
	c.cur = p
	c.env.proc = p
}

// Kernel owns the machine: physical memory, the cache hierarchy, cores, and
// processes.
type Kernel struct {
	cfg  Config
	hier *cache.Hierarchy
	phys *mem.Physical

	cores   []*coreState
	procs   []*Process
	nextPID int

	// shared regions by name (library images, explicit shared memory).
	regions map[string][]mem.Frame

	// kernelText is the physical region syscalls touch.
	kernelText []mem.Frame

	probe Probe

	// interrupted is set asynchronously by Interrupt and polled by Run at a
	// coarse stride; it is the only kernel field another goroutine may touch
	// while the machine runs.
	interrupted atomic.Bool

	Stats Stats
}

// SetProbe installs (or, with nil, removes) the scheduler telemetry probe.
func (k *Kernel) SetProbe(p Probe) { k.probe = p }

// New builds a kernel over the given hierarchy and physical memory. One
// hardware context per core is scheduled (the hierarchy may expose more for
// SMT experiments driven directly through the cache API).
func New(cfg Config, hier *cache.Hierarchy, phys *mem.Physical) *Kernel {
	k := &Kernel{
		cfg:     cfg,
		hier:    hier,
		phys:    phys,
		regions: map[string][]mem.Frame{},
		nextPID: 1,
	}
	ncpus := hier.Contexts()
	for c := 0; c < ncpus; c++ {
		cs := &coreState{id: c, ctx: c}
		cs.env = procEnv{k: k, cpu: cs}
		cs.secCaches = hier.SecCaches(c)
		for _, cc := range cs.secCaches {
			cs.secLineCounts = append(cs.secLineCounts, cc.Cache.Lines())
		}
		if len(cs.secLineCounts) > 0 {
			cs.switchCost = cfg.Cost.SwitchCost(cs.secLineCounts)
		}
		k.cores = append(k.cores, cs)
	}
	k.allocKernelText()
	return k
}

// allocKernelText allocates the kernel text region. On a fresh Physical the
// frames come out dense from 0; Reset re-runs this after Physical.Reset and
// gets the identical frames back.
func (k *Kernel) allocKernelText() {
	lines := k.cfg.KernelTextLines
	if lines <= 0 {
		lines = 1
	}
	pages := (lines*cache.LineSize + mem.PageSize - 1) / mem.PageSize
	for i := 0; i < pages; i++ {
		f, err := k.phys.Alloc()
		if err != nil {
			panic(fmt.Sprintf("kernel: cannot allocate kernel text: %v", err))
		}
		k.kernelText = append(k.kernelText, f)
	}
}

// Reset returns the kernel — and through it the whole machine: hierarchy,
// physical memory, cores — to the state New left it in, without reallocating
// the large arrays. Processes are dropped, stats and probes cleared, core
// clocks rewound to zero, and the kernel text re-allocated (deterministically
// receiving the same frames). machine.Reset is the public entry point.
func (k *Kernel) Reset() {
	k.hier.Reset()
	k.phys.Reset()
	k.probe = nil
	k.Stats = Stats{}
	// Clearing before truncating drops the references the backing arrays
	// still hold, so a pooled machine does not keep the previous run's
	// processes and address spaces alive.
	clear(k.procs)
	k.procs = k.procs[:0]
	k.nextPID = 1
	clear(k.regions)
	for _, c := range k.cores {
		c.clock = clock.Clock{}
		clear(c.runq)
		c.runq = c.runq[:0]
		c.setCur(nil)
		c.prev = nil
		c.sliceEnd, c.sliceInstrs, c.runStart = 0, 0, 0
	}
	k.kernelText = k.kernelText[:0]
	k.interrupted.Store(false)
	k.allocKernelText()
}

// Hierarchy returns the machine's cache hierarchy.
func (k *Kernel) Hierarchy() *cache.Hierarchy { return k.hier }

// Physical returns the machine's physical memory.
func (k *Kernel) Physical() *mem.Physical { return k.phys }

// Config returns the kernel configuration.
func (k *Kernel) Config() Config { return k.cfg }

// Processes returns all spawned processes.
func (k *Kernel) Processes() []*Process { return k.procs }

// SharedRegion returns (creating on first use) a named shared region of the
// given size; subsequent calls must pass the same size. The initialized
// contents are written by the first creator via Physical().
func (k *Kernel) SharedRegion(name string, size uint64) ([]mem.Frame, error) {
	if fr, ok := k.regions[name]; ok {
		need := int((size + mem.PageSize - 1) >> mem.PageShift)
		if need != len(fr) {
			return nil, fmt.Errorf("kernel: shared region %q size mismatch", name)
		}
		return fr, nil
	}
	n := int((size + mem.PageSize - 1) >> mem.PageShift)
	frames := make([]mem.Frame, 0, n)
	for i := 0; i < n; i++ {
		f, err := k.phys.Alloc()
		if err != nil {
			return nil, err
		}
		frames = append(frames, f)
	}
	k.regions[name] = frames
	return frames, nil
}

// Spawn registers a process running proc in address space as, pinned to
// core. The address space may be shared with another process (threads).
func (k *Kernel) Spawn(name string, proc sim.Proc, as *AddressSpace, coreID int) (*Process, error) {
	if coreID < 0 || coreID >= len(k.cores) {
		return nil, fmt.Errorf("kernel: core %d out of range", coreID)
	}
	p := &Process{
		PID:   k.nextPID,
		Name:  name,
		Core:  coreID,
		AS:    as,
		Proc:  proc,
		State: Ready,
	}
	k.nextPID++
	k.procs = append(k.procs, p)
	k.cores[coreID].runq = append(k.cores[coreID].runq, p)
	return p, nil
}

// syscall handles a kernel service request from the running process.
func (k *Kernel) syscall(c *coreState, p *Process, num, arg uint64) uint64 {
	k.Stats.Syscalls++
	k.touchKernelText(c)
	switch num {
	case sim.SysExit:
		p.ExitCode = arg
		p.State = Exited
	case sim.SysYield:
		// The slice ends now; the scheduler loop rotates the run queue.
		c.sliceEnd = c.clock.Now()
	case sim.SysSleep:
		p.State = Sleeping
		p.wakeAt = c.clock.Now() + arg
		c.sliceEnd = c.clock.Now()
	case sim.SysGetPID:
		return uint64(p.PID)
	case sim.SysPrint:
		// Recorded by the Proc itself (e.g. vm.CPU.Output); nothing to do.
	default:
		// Unknown syscalls are ignored, returning 0, like a stub kernel.
	}
	return 0
}

// touchKernelText models the kernel's own cache footprint during a syscall:
// a few lines of kernel text are fetched in the current hardware context.
// Because kernel text is shared physical memory, these accesses generate
// first-access misses across security contexts exactly as the paper notes
// for system calls and kernel data structures.
func (k *Kernel) touchKernelText(c *coreState) {
	n := k.cfg.KernelLinesPerSyscall
	if n <= 0 || len(k.kernelText) == 0 {
		return
	}
	total := k.cfg.KernelTextLines
	start := int(k.Stats.Syscalls) * 7 % total
	for i := 0; i < n; i++ {
		line := (start + i) % total
		pa := k.kernelText[line*cache.LineSize/mem.PageSize].Addr() +
			uint64(line*cache.LineSize%mem.PageSize)
		r := &c.req
		r.Now, r.Ctx, r.Addr, r.Kind = c.clock.Now(), c.ctx, pa, cache.Fetch
		k.hier.Serve(r)
		c.clock.Advance(r.Latency)
	}
}

// contextSwitch performs the software half of TimeCache: save the outgoing
// process's s-bit columns and Ts, restore the incoming process's columns,
// and let the hardware comparator reconcile them with current cache state.
func (k *Kernel) contextSwitch(c *coreState, out, in *Process) {
	k.Stats.ContextSwitches++
	start := c.clock.Now()
	c.clock.Advance(k.cfg.SwitchBaseCycles)

	if k.cfg.FlushOnSwitch {
		k.hier.FlushAll()
	}
	if in != nil {
		// Partitioned (DAWG-lite) hierarchies confine each security domain
		// to its ways; processes map to domains by PID.
		k.hier.SetActiveDomain(k.hier.CoreOf(c.ctx), in.PID)
	}
	// Runtime defenses (FASE-style selective flushing) act at the switch and
	// charge their cost inside the switch window, so it lands in
	// Stats.SwitchCycles like the base and bookkeeping components.
	outPID, inPID := 0, 0
	if out != nil {
		outPID = out.PID
	}
	if in != nil {
		inPID = in.PID
	}
	if cost := k.hier.DefenseSwitch(k.hier.CoreOf(c.ctx), outPID, inPID, c.clock.Now()); cost > 0 {
		c.clock.Advance(cost)
	}

	var bkStart, bkEnd uint64
	if len(c.secCaches) > 0 {
		if out != nil {
			for _, cc := range c.secCaches {
				// Reuse the process's saved-column buffer across switches;
				// the first save on each cache allocates it once.
				cc.Cache.Sec().SaveColumnInto(cc.LocalCtx, out.savedBuf(cc.Cache))
			}
			out.Ts = c.clock.Now()
			out.everRan = true
		}
		if in != nil {
			now := c.clock.Now()
			for _, cc := range c.secCaches {
				var v core.SecVec
				if in.everRan {
					v = in.savedFor(cc.Cache)
				}
				cc.Cache.Sec().RestoreColumn(cc.LocalCtx, v, in.Ts, now)
			}
		}
		// The paper charges a single DMA transfer per switch for the save
		// and restore of the s-bit buffer (cost precomputed per context).
		bk := c.switchCost
		bkStart = c.clock.Now()
		c.clock.Advance(bk)
		bkEnd = c.clock.Now()
		k.Stats.BookkeepingCycles += bk
	}
	k.Stats.SwitchCycles += c.clock.Now() - start
	if in != nil {
		in.Stats.Switches++
	}
	if k.probe != nil {
		ev := SwitchEvent{
			Core: c.id, Start: start, End: c.clock.Now(),
			BookkeepStart: bkStart, BookkeepEnd: bkEnd,
		}
		if out != nil {
			ev.OutPID, ev.OutName = out.PID, out.Name
		}
		if in != nil {
			ev.InPID, ev.InName = in.PID, in.Name
		}
		k.probe.OnContextSwitch(ev)
	}
}

// schedule picks the next process for core c and performs the context
// switch. Returns false if the core has nothing runnable.
func (k *Kernel) schedule(c *coreState) bool {
	k.wakeSleepers(c)
	if len(c.runq) == 0 {
		// If everything is sleeping, skip idle time to the earliest wake.
		var earliest uint64
		found := false
		for _, p := range k.procs {
			if p.Core == c.id && p.State == Sleeping {
				if !found || p.wakeAt < earliest {
					earliest, found = p.wakeAt, true
				}
			}
		}
		if !found {
			return false
		}
		if earliest > c.clock.Now() {
			c.clock.AdvanceTo(earliest)
		}
		k.wakeSleepers(c)
		if len(c.runq) == 0 {
			return false
		}
	}
	// Pop by shifting rather than reslicing, so the queue keeps its backing
	// array and a preempted process re-queues without allocating.
	next := c.runq[0]
	n := copy(c.runq, c.runq[1:])
	c.runq[n] = nil
	c.runq = c.runq[:n]
	out := c.prev
	// Avoid charging a switch when the same single process continues.
	if out != next {
		k.contextSwitch(c, out, next)
	}
	c.prev = nil
	c.setCur(next)
	next.State = Running
	c.runStart = c.clock.Now()
	c.sliceEnd = c.clock.Now() + k.cfg.SliceCycles
	c.sliceInstrs = 0
	return true
}

func (k *Kernel) wakeSleepers(c *coreState) {
	for _, p := range k.procs {
		if p.Core == c.id && p.State == Sleeping && p.wakeAt <= c.clock.Now() {
			p.State = Ready
			c.runq = append(c.runq, p)
		}
	}
}

// stepCurrent runs one instruction of the core's current process, then
// takes the process off the core if it exited, went to sleep, or used up
// its slice.
func (k *Kernel) stepCurrent(c *coreState) {
	p := c.cur
	before := c.clock.Now()
	alive := step(c, p)
	p.Stats.CPUCycles += c.clock.Now() - before
	if k.probe != nil {
		k.probe.AfterStep(c.id, c.clock.Now())
	}

	if !alive || p.State == Exited {
		if p.State != Exited {
			p.State = Exited
		}
		p.Stats.FinishedAt = c.clock.Now()
		k.endRunSpan(c, p)
		// An exited process's caching context need not be saved; the next
		// restore clears its hardware s-bits.
		c.setCur(nil)
		c.prev = nil
		return
	}
	if p.State == Sleeping {
		k.endRunSpan(c, p)
		c.setCur(nil)
		c.prev = p
		return
	}
	if c.clock.Now() >= c.sliceEnd {
		// Preempt: back of the queue. If nothing else is runnable the
		// scheduler will immediately re-pick it without a switch charge.
		k.endRunSpan(c, p)
		p.State = Ready
		c.runq = append(c.runq, p)
		c.setCur(nil)
		c.prev = p
	}
}

// step runs one Proc.Step of p against the CPU's Env. A procFault raised
// inside the Env kills p alone (step reports it dead); any other panic
// propagates.
func step(c *coreState, p *Process) (alive bool) {
	defer killOnFault(p, &alive)
	return p.Proc.Step(&c.env)
}

// killOnFault is step's deferred fault handler.
func killOnFault(p *Process, alive *bool) {
	r := recover()
	if r == nil {
		return
	}
	pf, isFault := r.(*procFault)
	if !isFault {
		panic(r)
	}
	p.Err = pf.err
	p.State = Exited
	*alive = false
}

// endRunSpan reports the on-core occupancy span ending now for p.
func (k *Kernel) endRunSpan(c *coreState, p *Process) {
	if k.probe != nil {
		k.probe.OnRunSpan(c.id, p.PID, p.Name, c.runStart, c.clock.Now())
	}
}

// Interrupt asks a Run in progress (possibly on another goroutine) to stop
// at its next checkpoint. The request is sticky: it persists until
// ClearInterrupt or Reset, so an interrupt delivered between runs still
// stops the next Run immediately. Interrupt never perturbs simulated state —
// an interrupted run simply ends early, and Interrupted()/AllExited() tell
// the caller it did.
func (k *Kernel) Interrupt() { k.interrupted.Store(true) }

// Interrupted reports whether an Interrupt request is pending.
func (k *Kernel) Interrupted() bool { return k.interrupted.Load() }

// ClearInterrupt withdraws a pending Interrupt request.
func (k *Kernel) ClearInterrupt() { k.interrupted.Store(false) }

// interruptStride is how many scheduler steps Run executes between polls of
// the interrupt flag: coarse enough that the atomic load vanishes against
// the cost of a step, fine enough that cancellation lands in microseconds.
const interruptStride = 1024

// RunCtx is Run bounded by a context: when ctx is cancelled (client
// disconnect, deadline, SIGTERM drain) the machine stops at the next
// interrupt checkpoint and RunCtx returns the clock reached so far. The
// caller distinguishes completion from cancellation via ctx.Err() and
// AllExited. A nil or never-cancelled context behaves exactly like Run.
func (k *Kernel) RunCtx(ctx context.Context, maxCycles uint64) uint64 {
	if ctx == nil || ctx.Done() == nil {
		return k.Run(maxCycles)
	}
	if ctx.Err() != nil {
		return k.maxClock()
	}
	// After a cancelled run the flag intentionally stays set: the machine is
	// mid-workload and must be Reset before reuse (Reset clears it). That
	// reasoning only holds if the callback cannot fire after RunCtx returns —
	// a late Interrupt landing after the next Reset would spuriously abort an
	// unrelated run on a pooled machine. AfterFunc's stop does not wait for
	// an in-flight callback, so when stop reports the callback has started we
	// block until it completes before returning.
	fired := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		k.Interrupt()
		close(fired)
	})
	n := k.Run(maxCycles)
	if !stop() {
		<-fired
	}
	return n
}

// Run advances the machine until every process has exited or any core's
// clock passes maxCycles. It returns the maximum core clock reached.
func (k *Kernel) Run(maxCycles uint64) uint64 {
	sincePoll := interruptStride - 1 // poll on the first iteration
	for {
		if sincePoll++; sincePoll >= interruptStride {
			sincePoll = 0
			if k.interrupted.Load() {
				break
			}
		}
		// Pick the live core whose next event is earliest, keeping
		// cross-core interleaving fine-grained, deterministic, and causally
		// ordered. A core whose processes are all sleeping will fast-forward
		// its clock to the earliest wake, so its effective time is that
		// wake-up, not its current clock.
		var c *coreState
		var cTime uint64
		for _, cand := range k.cores {
			if cand.cur == nil && !k.coreHasWork(cand) {
				continue
			}
			t := k.nextEventTime(cand)
			if c == nil || t < cTime {
				c, cTime = cand, t
			}
		}
		if c == nil {
			break // all processes exited
		}
		if cTime >= maxCycles {
			break
		}
		if c.cur == nil {
			if !k.schedule(c) {
				// Nothing runnable ever again on this core.
				continue
			}
		}
		k.stepCurrent(c)
	}
	return k.maxClock()
}

// maxClock returns the highest core clock.
func (k *Kernel) maxClock() uint64 {
	var maxT uint64
	for _, c := range k.cores {
		if c.clock.Now() > maxT {
			maxT = c.clock.Now()
		}
	}
	return maxT
}

// nextEventTime returns the simulation time of core c's next action: its
// clock if something is runnable now, otherwise the earliest sleeper wake.
func (k *Kernel) nextEventTime(c *coreState) uint64 {
	if c.cur != nil || len(c.runq) > 0 {
		return c.clock.Now()
	}
	var earliest uint64
	found := false
	for _, p := range k.procs {
		if p.Core == c.id && p.State == Sleeping {
			if !found || p.wakeAt < earliest {
				earliest, found = p.wakeAt, true
			}
		}
	}
	if found && earliest > c.clock.Now() {
		return earliest
	}
	return c.clock.Now()
}

func (k *Kernel) coreHasWork(c *coreState) bool {
	if len(c.runq) > 0 {
		return true
	}
	for _, p := range k.procs {
		if p.Core == c.id && p.State == Sleeping {
			return true
		}
	}
	return false
}

// CoreClock returns core c's current cycle count.
func (k *Kernel) CoreClock(c int) uint64 { return k.cores[c].clock.Now() }

// AllExited reports whether every process has terminated.
func (k *Kernel) AllExited() bool {
	for _, p := range k.procs {
		if p.State != Exited {
			return false
		}
	}
	return true
}
