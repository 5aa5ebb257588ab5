// Package timecache is a from-scratch Go reproduction of "TimeCache: Using
// Time to Eliminate Cache Side Channels when Sharing Software" (Ojha &
// Dwarkadas, ISCA 2021).
//
// It bundles a cycle-level multi-core cache-hierarchy simulator, a small
// operating-system substrate (processes, virtual memory, a round-robin
// scheduler with TimeCache's context-switch s-bit bookkeeping, KSM-style
// page deduplication), a μRISC ISA with assembler and interpreter, the
// paper's attacks (flush+reload, evict+reload, flush+flush, prime+probe,
// LRU, coherence invalidate+transfer, evict+time), an RSA
// square-and-multiply victim, and calibrated SPEC2006/PARSEC workload
// models.
//
// This root package exports nothing; it holds the repository-wide tests
// (golden experiment outputs, determinism, the paper benchmarks). The
// programs live under cmd/ (reproduce, timecache-sim, asm-run,
// attack-demo, timecache-serve) and examples/, and the simulator under
// internal/: machine.New assembles a machine from a machine.Config whose
// Defense field names a registry kind (internal/defense), kernel.Load and
// workload.Spawn start processes on it, internal/attack mounts the
// paper's attacks, and internal/harness runs the experiment jobs behind
// every table and figure.
package timecache
