package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// withCPUProfile runs fn under the CPU profiler and stores the encoded
// profile in *out.
func withCPUProfile(out *[]byte, fn func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("start CPU profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	*out = buf.Bytes()
	return err
}

// packageLayer maps a repository package to its profile bucket. Packages
// not listed fall through to the next frame up the stack.
var packageLayer = map[string]string{
	"timecache/internal/cache":       "cache",
	"timecache/internal/core":        "core",
	"timecache/internal/bitserial":   "core",
	"timecache/internal/replacement": "replacement",
	"timecache/internal/kernel":      "kernel",
	"timecache/internal/sim":         "kernel",
	"timecache/internal/mem":         "mem",
	"timecache/internal/workload":    "workload",
	"timecache/internal/defense":     "defense",
	"timecache/internal/attack":      "attack",
	"timecache/internal/vm":          "attack",
	"timecache/internal/rsa":         "attack",
	"timecache/internal/asm":         "attack",
	"timecache/internal/isa":         "attack",
	"timecache/internal/harness":     "harness",
	"timecache/internal/runner":      "harness",
	"timecache/internal/stats":       "harness",
	"timecache/internal/telemetry":   "harness",
	"timecache/internal/machine":     "machine",
	"timecache/internal/server":      "server",
	"timecache/internal/clock":       "core", // cycle clock and s-bit timestamps
	"timecache/internal/jobstore":    "jobstore",
	"timecache/internal/resultcache": "resultcache",
	"main":                           "bench",
}

// gcFrames and mallocFrames mark stacks spent in the collector and in the
// allocator; they take precedence over the package of the leaf frame.
var (
	gcFrames = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
		"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.markroot",
		"runtime.gcDrain", "runtime.GC",
	}
	mallocFrames = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.newarray",
	}
)

// funcPackage extracts the import path from a symbol name such as
// "timecache/internal/cache.(*Hierarchy).Serve". Type arguments of generic
// functions can name other packages, so they are cut off first.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// stackLayer buckets one sample's stack (leaf first).
func stackLayer(stack []string) string {
	for _, set := range []struct {
		frames []string
		layer  string
	}{{gcFrames, "runtime_gc"}, {mallocFrames, "runtime_malloc"}} {
		for _, fn := range stack {
			for _, f := range set.frames {
				if fn == f || strings.HasPrefix(fn, f+".") {
					return set.layer
				}
			}
		}
	}
	for _, fn := range stack {
		if l, ok := packageLayer[funcPackage(fn)]; ok {
			return l
		}
	}
	return "other"
}

// putProfile stores profile.<layer>_frac: each bucket's share of the CPU
// time sampled in the traced passes.
func putProfile(layers map[string]float64, raw []byte) error {
	byLayer, total, err := profileLayersOf(raw)
	if err != nil {
		return fmt.Errorf("decode CPU profile: %w", err)
	}
	for _, l := range profileLayers {
		layers["profile."+l+"_frac"] = frac(float64(byLayer[l]), float64(total))
	}
	return nil
}

// profileLayersOf decodes a gzipped pprof CPU profile with the standard
// library and sums sampled CPU time per bucket.
func profileLayersOf(raw []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := decodeProfile(data)
	if err != nil {
		return nil, 0, err
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // cpu nanoseconds
		var stack []string
		for _, id := range s.locs {
			for _, fid := range p.locFuncs[id] {
				stack = append(stack, p.funcName(fid))
			}
		}
		byLayer[stackLayer(stack)] += v
		total += v
	}
	return byLayer, total, nil
}

// profile is the subset of profile.proto the bucketing needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcs    map[uint64]int64    // function id → name string index
	strs     []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) funcName(id uint64) string {
	i := p.funcs[id]
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// decodeProfile parses the profile.proto fields sample (2), location (4),
// function (5), and string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case 1:
					ids, err := varints(wire, v, sub)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					vals, err := varints(wire, v, sub)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(sub, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(sub, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6:
			p.strs = append(p.strs, string(sub))
		}
		return nil
	})
	return p, err
}

// varints reads a repeated integer field, packed (wire type 2) or not.
func varints(wire int, v uint64, sub []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return nil, errBadProto
		}
		out = append(out, x)
		sub = sub[n:]
	}
	return out, nil
}

var errBadProto = errors.New("malformed profile protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, its integer value (varint and fixed types), or its
// bytes (length-delimited).
func eachField(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
		default:
			return errBadProto
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}
