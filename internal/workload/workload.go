// Package workload provides synthetic statistical models of the SPEC2006
// and PARSEC benchmarks the paper evaluates with. Each profile is
// calibrated against the paper's Table II baseline LLC MPKI and the
// qualitative code-footprint observations (e.g. wrf and perlbench have
// large shared instruction footprints), so the reproduction exercises the
// same mechanisms: streaming misses, resident working sets, shared binary
// text, a shared libc image, and kernel-text sharing across context
// switches.
package workload

import (
	"fmt"

	"timecache/internal/cache"
	"timecache/internal/kernel"
	"timecache/internal/sim"
)

// Profile is a statistical model of one benchmark.
type Profile struct {
	Name string

	// MemRatio is the fraction of instructions performing a data access.
	MemRatio float64
	// StoreRatio is the fraction of data accesses that are stores.
	StoreRatio float64
	// StreamFrac is the fraction of data accesses that walk a large
	// streaming region sequentially (the LLC-miss generator).
	StreamFrac float64
	// StreamBytes is the streaming region size; larger than the LLC so
	// streamed lines always miss.
	StreamBytes uint64
	// WSBytes is the resident random-access working set.
	WSBytes uint64
	// CodeBytes is the benchmark's instruction footprint (shared between
	// instances of the same benchmark).
	CodeBytes uint64
	// LibFrac is the fraction of fetches that go to the shared libc image.
	LibFrac float64
	// LibDataFrac is the fraction of data accesses that read shared libc
	// data structures (the cross-process shared-data component that
	// produces L1D first accesses in Fig. 8).
	LibDataFrac float64
	// JumpEvery is the number of sequential fetches between jumps to a
	// random spot in the code region (controls L1I locality).
	JumpEvery int
}

// Region layout for workload address spaces.
const (
	codeBase    = 0x0100_0000
	libBase     = 0x0800_0000
	libDataBase = 0x0900_0000
	streamBase  = 0x1000_0000
	wsBase      = 0x3000_0000

	// LibBytes is the hot shared libc footprint, common to every process
	// (the actively used subset of the library, not its full image).
	LibBytes = 64 << 10
	// LibDataBytes is the hot shared libc data footprint.
	LibDataBytes = 16 << 10
)

// Proc is a running workload instance implementing sim.Proc.
type Proc struct {
	prof    Profile
	budget  uint64
	retired uint64
	rng     uint64

	// Warmup marks the instruction count after which OnWarm fires once;
	// the harness reads the counters there so cold-start misses do not
	// pollute steady-state measurements (the paper amortizes them over 1B
	// instructions).
	Warmup uint64
	// OnWarm is invoked when Warmup instructions have retired.
	OnWarm func()
	warmed bool

	codePos   uint64
	sinceJump int
	streamPos uint64
}

// NewProc creates a workload process that retires `instrs` instructions.
func NewProc(prof Profile, instrs uint64, seed uint64) *Proc {
	if prof.JumpEvery <= 0 {
		prof.JumpEvery = 16
	}
	return &Proc{prof: prof, budget: instrs, rng: seed*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03}
}

// Retired returns the number of instructions executed so far.
func (p *Proc) Retired() uint64 { return p.retired }

func (p *Proc) rand() uint64 {
	p.rng ^= p.rng << 13
	p.rng ^= p.rng >> 7
	p.rng ^= p.rng << 17
	return p.rng
}

// randFloat returns a uniform float in [0,1).
func (p *Proc) randFloat() float64 {
	return float64(p.rand()>>11) / float64(1<<53)
}

// pick returns a uniform index in [0,n). Shared regions are sized to their
// hot footprint (a process touches a small part of libc), so uniform access
// covers them during warmup and steady-state first accesses reflect genuine
// evict-refill dynamics rather than one-time cold coverage.
func (p *Proc) pick(n uint64) uint64 {
	return p.rand() % n
}

// Step executes one modeled instruction: a fetch, possibly a data access,
// and one compute cycle.
func (p *Proc) Step(env sim.Env) bool {
	if p.retired >= p.budget {
		env.Syscall(sim.SysExit, 0)
		return false
	}
	// Instruction fetch: mostly sequential within the code region, with
	// periodic jumps; a LibFrac slice fetches shared-library code.
	var fetchAddr uint64
	if p.prof.LibFrac > 0 && p.randFloat() < p.prof.LibFrac {
		fetchAddr = libBase + p.pick(LibBytes/cache.LineSize)*cache.LineSize
	} else {
		p.sinceJump++
		if p.sinceJump >= p.prof.JumpEvery {
			p.sinceJump = 0
			p.codePos = p.pick(p.prof.CodeBytes)
		} else {
			p.codePos = (p.codePos + 8) % p.prof.CodeBytes
		}
		fetchAddr = codeBase + (p.codePos &^ 7)
	}
	env.Fetch(fetchAddr)

	if p.randFloat() < p.prof.MemRatio {
		switch {
		case p.prof.LibDataFrac > 0 && p.randFloat() < p.prof.LibDataFrac:
			// Shared libc data is read-only from the process's viewpoint.
			env.Load(libDataBase + p.pick(LibDataBytes/8)*8)
		case p.randFloat() < p.prof.StreamFrac:
			addr := streamBase + p.streamPos
			p.streamPos = (p.streamPos + 8) % p.prof.StreamBytes
			if p.randFloat() < p.prof.StoreRatio {
				env.Store(addr, p.rng)
			} else {
				env.Load(addr)
			}
		default:
			addr := wsBase + (p.rand()%(p.prof.WSBytes/8))*8
			if p.randFloat() < p.prof.StoreRatio {
				env.Store(addr, p.rng)
			} else {
				env.Load(addr)
			}
		}
	}
	env.Tick(1)
	env.Instret(1)
	p.retired++
	if !p.warmed && p.Warmup > 0 && p.retired >= p.Warmup {
		p.warmed = true
		if p.OnWarm != nil {
			p.OnWarm()
		}
	}
	return true
}

// SpawnOptions controls workload placement.
type SpawnOptions struct {
	// Core pins the process.
	Core int
	// Instrs is the instruction budget.
	Instrs uint64
	// Seed perturbs the access stream (give the two instances of a pair
	// different seeds).
	Seed uint64
	// ShareAS, when non-nil, reuses an existing address space (PARSEC-style
	// threads sharing code and data).
	ShareAS *kernel.AddressSpace
}

// Spawn sets up an address space for prof and schedules a workload process:
// the benchmark text is a shared region keyed by the benchmark name (two
// instances of the same benchmark share their binary, as the paper's
// 2X runs do), libc is a globally shared region, and the streaming/working
// set data is private.
func Spawn(k *kernel.Kernel, prof Profile, opts SpawnOptions) (*kernel.Process, *Proc, error) {
	as := opts.ShareAS
	if as == nil {
		var err error
		as, err = buildAS(k, prof)
		if err != nil {
			return nil, nil, err
		}
	}
	proc := NewProc(prof, opts.Instrs, opts.Seed)
	p, err := k.Spawn(prof.Name, proc, as, opts.Core)
	if err != nil {
		return nil, nil, err
	}
	return p, proc, nil
}

// buildAS maps the four workload regions for one instance of prof.
func buildAS(k *kernel.Kernel, prof Profile) (*kernel.AddressSpace, error) {
	as := kernel.NewAddressSpace(k.Physical())
	if err := k.MapSharedRegion(as, "bench:"+prof.Name+":text", codeBase, prof.CodeBytes); err != nil {
		return nil, fmt.Errorf("workload %s: code: %w", prof.Name, err)
	}
	if err := k.MapSharedRegion(as, "libc", libBase, LibBytes); err != nil {
		return nil, fmt.Errorf("workload %s: libc: %w", prof.Name, err)
	}
	if err := k.MapSharedRegion(as, "libc.data", libDataBase, LibDataBytes); err != nil {
		return nil, fmt.Errorf("workload %s: libc data: %w", prof.Name, err)
	}
	if err := as.MapAnon(streamBase, prof.StreamBytes, true); err != nil {
		return nil, fmt.Errorf("workload %s: stream: %w", prof.Name, err)
	}
	if err := as.MapAnon(wsBase, prof.WSBytes, true); err != nil {
		return nil, fmt.Errorf("workload %s: ws: %w", prof.Name, err)
	}
	return as, nil
}

// BuildSharedAS exposes buildAS for PARSEC-style thread groups that share
// one address space across cores.
func BuildSharedAS(k *kernel.Kernel, prof Profile) (*kernel.AddressSpace, error) {
	return buildAS(k, prof)
}

// FramesNeeded estimates the physical frames one instance of prof needs,
// for sizing physical memory.
func FramesNeeded(prof Profile) int {
	bytes := prof.StreamBytes + prof.WSBytes + prof.CodeBytes + LibBytes
	return int(bytes/4096) + 16
}
