package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"timecache/internal/clock"
	"timecache/internal/kernel"
)

// MachineInfo records the simulated machine configuration in a manifest.
// Defense is the registry kind (internal/defense) the machine was built
// with; Mode is the structural cache security mode that kind resolves to.
type MachineInfo struct {
	Defense        string `json:"defense"`
	Mode           string `json:"mode"`
	Cores          int    `json:"cores"`
	ThreadsPerCore int    `json:"threads_per_core"`
	L1SizeBytes    int    `json:"l1_size_bytes"`
	L1Ways         int    `json:"l1_ways"`
	LLCSizeBytes   int    `json:"llc_size_bytes"`
	LLCWays        int    `json:"llc_ways"`
	DRAMLatCycles  uint64 `json:"dram_lat_cycles"`
	SliceCycles    uint64 `json:"slice_cycles"`
}

// CacheCounters is one cache's end-of-run counters.
type CacheCounters struct {
	Name        string `json:"name"`
	Accesses    uint64 `json:"accesses"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	FirstAccess uint64 `json:"first_access"`
	Evictions   uint64 `json:"evictions"`
	Writebacks  uint64 `json:"writebacks"`
	Invalidates uint64 `json:"invalidates"`
}

// ProcCounters is one process's end-of-run counters.
type ProcCounters struct {
	PID          int    `json:"pid"`
	Name         string `json:"name"`
	Instructions uint64 `json:"instructions"`
	CPUCycles    uint64 `json:"cpu_cycles"`
	FinishedAt   uint64 `json:"finished_at_cycle"`
	Switches     uint64 `json:"times_scheduled"`
}

// Counters is the machine-wide counter section of a manifest.
type Counters struct {
	MaxCycle          uint64          `json:"max_cycle"`
	ContextSwitches   uint64          `json:"context_switches"`
	BookkeepingCycles uint64          `json:"bookkeeping_cycles"`
	SwitchCycles      uint64          `json:"switch_cycles"`
	Syscalls          uint64          `json:"syscalls"`
	COWBreaks         uint64          `json:"cow_breaks"`
	DedupMerged       uint64          `json:"dedup_merged_pages"`
	Caches            []CacheCounters `json:"caches"`
	Processes         []ProcCounters  `json:"processes"`
}

// Manifest is the JSON sidecar describing one simulator run: what ran, on
// what machine, what it counted, and how long it took on the wall clock.
// Tool is the name of the command that produced it.
type Manifest struct {
	Tool        string         `json:"tool"`
	CreatedAt   time.Time      `json:"created_at"`
	WallSeconds float64        `json:"wall_seconds"`
	Machine     MachineInfo    `json:"machine"`
	Counters    Counters       `json:"counters"`
	Samples     int            `json:"telemetry_samples"`
	TraceEvents int            `json:"trace_events"`
	Meta        map[string]any `json:"meta,omitempty"`
}

// buildManifest snapshots a kernel built under the defense kind into a
// Manifest.
func buildManifest(k *kernel.Kernel, defense string) Manifest {
	h := k.Hierarchy()
	hcfg := h.Config()
	m := Manifest{
		Tool:      filepath.Base(os.Args[0]),
		CreatedAt: clock.Real{}.Now().UTC(),
		Machine: MachineInfo{
			Defense:        defense,
			Mode:           hcfg.Mode.String(),
			Cores:          hcfg.Cores,
			ThreadsPerCore: hcfg.ThreadsPerCore,
			L1SizeBytes:    hcfg.L1Size,
			L1Ways:         hcfg.L1Ways,
			LLCSizeBytes:   hcfg.LLCSize,
			LLCWays:        hcfg.LLCWays,
			DRAMLatCycles:  hcfg.DRAMLat,
			SliceCycles:    k.Config().SliceCycles,
		},
		Counters: Counters{
			ContextSwitches:   k.Stats.ContextSwitches,
			BookkeepingCycles: k.Stats.BookkeepingCycles,
			SwitchCycles:      k.Stats.SwitchCycles,
			Syscalls:          k.Stats.Syscalls,
			COWBreaks:         k.Stats.COWBreaks,
			DedupMerged:       k.Stats.DedupMerged,
		},
	}
	for c := 0; c < hcfg.Cores; c++ {
		if t := k.CoreClock(c); t > m.Counters.MaxCycle {
			m.Counters.MaxCycle = t
		}
	}
	for _, c := range h.Caches() {
		m.Counters.Caches = append(m.Counters.Caches, CacheCounters{
			Name:        c.Name(),
			Accesses:    c.Stats.Accesses,
			Hits:        c.Stats.Hits,
			Misses:      c.Stats.Misses,
			FirstAccess: c.Stats.FirstAccess,
			Evictions:   c.Stats.Evictions,
			Writebacks:  c.Stats.Writebacks,
			Invalidates: c.Stats.Invalidates,
		})
	}
	for _, p := range k.Processes() {
		m.Counters.Processes = append(m.Counters.Processes, ProcCounters{
			PID:          p.PID,
			Name:         p.Name,
			Instructions: p.Stats.Instructions,
			CPUCycles:    p.Stats.CPUCycles,
			FinishedAt:   p.Stats.FinishedAt,
			Switches:     p.Stats.Switches,
		})
	}
	return m
}

// WriteJSON writes the manifest to path.
func (m Manifest) WriteJSON(path string) error {
	b, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
