package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of xs by the
// nearest-rank rule, or 0 for no samples. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle sample (mean of the two middle ones for an even
// count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOK reports whether a p-th percentile over n samples has at least ten
// samples beyond it.
func tailOK(n int, p float64) bool {
	return float64(n)*(1-p/100) >= 10
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// heapSampler tracks the peak of live heap objects while it runs. Reading
// runtime/metrics does not stop the world, so sampling every 5 ms costs
// the measured work nothing noticeable.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// finish stops the sampler, waits for it to exit, and returns the peak in
// MB (10^6 bytes).
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / 1e6
}

// runtimeCounters is a snapshot of the Go runtime's allocation and GC
// counters.
type runtimeCounters struct {
	allocs, allocBytes, gcCycles uint64
	gcCPU, totalCPU              float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
	}
}

func (r runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocs:     r.allocs - o.allocs,
		allocBytes: r.allocBytes - o.allocBytes,
		gcCycles:   r.gcCycles - o.gcCycles,
		gcCPU:      r.gcCPU - o.gcCPU,
		totalCPU:   r.totalCPU - o.totalCPU,
	}
}

func (r runtimeCounters) add(o runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocs:     r.allocs + o.allocs,
		allocBytes: r.allocBytes + o.allocBytes,
		gcCycles:   r.gcCycles + o.gcCycles,
		gcCPU:      r.gcCPU + o.gcCPU,
		totalCPU:   r.totalCPU + o.totalCPU,
	}
}

// putRuntime stores the runtime.* per-layer metrics, per simulated
// instruction of instrs.
func putRuntime(layers map[string]float64, r runtimeCounters, instrs uint64) {
	layers["runtime.allocs_per_instr"] = frac(float64(r.allocs), float64(instrs))
	layers["runtime.alloc_bytes_per_instr"] = frac(float64(r.allocBytes), float64(instrs))
	layers["runtime.gc_cycles"] = float64(r.gcCycles)
	layers["runtime.gc_cpu_frac"] = frac(r.gcCPU, r.totalCPU)
}

// quiesce collects garbage left by earlier passes so each pass starts from
// the same heap state.
func quiesce() { runtime.GC() }

// fmtList renders samples for the report.
func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return strings.Join(parts, " ")
}
