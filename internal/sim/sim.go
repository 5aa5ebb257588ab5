// Package sim defines the interfaces between the kernel's scheduler and the
// programs it runs. A Proc is anything executable — the μRISC interpreter
// (internal/vm), a synthetic workload generator (internal/workload), an
// attacker or victim (internal/attack, internal/rsa). The kernel hands each
// Proc an Env that routes memory traffic through the simulated hierarchy,
// charges cycles, and exposes syscalls.
package sim

// Syscall numbers understood by the kernel.
const (
	SysExit   = 0 // terminate the process
	SysYield  = 1 // give up the remainder of the time slice
	SysSleep  = 2 // arg = cycles to sleep
	SysGetPID = 3 // returns the PID
	SysPrint  = 4 // arg is emitted to the process's output log
)

// Env is the execution environment the kernel provides to a running Proc.
// All memory operations take virtual addresses in the process's address
// space and charge the access latency to the process's core clock.
type Env interface {
	// Fetch performs an instruction fetch at vaddr through the L1I.
	Fetch(vaddr uint64)
	// Load reads the 8-byte word at vaddr through the L1D.
	Load(vaddr uint64) uint64
	// Store writes the 8-byte word at vaddr through the L1D.
	Store(vaddr uint64, v uint64)
	// Flush executes clflush for the line containing vaddr.
	Flush(vaddr uint64)
	// Now returns the current cycle count of the process's core. Memory
	// latencies are reflected immediately, so RDTSC-style timing works.
	Now() uint64
	// Tick charges n compute cycles.
	Tick(n uint64)
	// Instret retires n instructions (for MPKI/IPC accounting).
	Instret(n uint64)
	// Syscall invokes a kernel service; the meaning of arg and the return
	// value depend on the syscall number.
	Syscall(num, arg uint64) uint64
	// PID returns the calling process's ID.
	PID() int
}

// Proc is a schedulable program. Step executes one instruction (or one
// bounded unit of work) against env and reports whether the process is
// still running; returning false terminates it. The kernel may preempt
// between Step calls.
type Proc interface {
	Step(env Env) bool
}

// ProcFunc adapts a function to the Proc interface.
type ProcFunc func(env Env) bool

// Step implements Proc.
func (f ProcFunc) Step(env Env) bool { return f(env) }
