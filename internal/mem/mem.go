// Package mem models physical memory: a frame allocator with reference
// counts (supporting copy-on-write sharing and page deduplication) over
// byte-addressable contents, plus the DRAM latency model that terminates the
// cache hierarchy.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// PageSize is the physical frame and virtual page size in bytes.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Frame identifies a physical frame. Frame numbers are dense and start at 0.
type Frame uint64

// Addr converts a frame number to the physical address of its first byte.
func (f Frame) Addr() uint64 { return uint64(f) << PageShift }

// FrameOf returns the frame containing physical address pa.
func FrameOf(pa uint64) Frame { return Frame(pa >> PageShift) }

// Physical is a physical memory: a set of allocated frames with contents and
// reference counts. The zero value is not usable; use NewPhysical.
type Physical struct {
	frames   []*frameInfo
	free     []Frame
	capacity int
	live     int // frames with refs > 0, maintained by Alloc/Unref/Reset

	// DRAMLatency is the cycles charged for a request serviced by memory.
	DRAMLatency uint64
}

// frameInfo is one frame's contents and bookkeeping.
type frameInfo struct {
	data []byte
	refs int
}

// NewPhysical creates a physical memory with capacity frames and the given
// DRAM access latency in cycles.
func NewPhysical(capacityFrames int, dramLatency uint64) *Physical {
	if capacityFrames <= 0 {
		panic("mem: capacity must be positive")
	}
	return &Physical{capacity: capacityFrames, DRAMLatency: dramLatency}
}

// Alloc allocates a zeroed frame with refcount 1.
func (p *Physical) Alloc() (Frame, error) {
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		fi := p.frames[f]
		fi.refs = 1
		p.live++
		clear(fi.data)
		return f, nil
	}
	if len(p.frames) >= p.capacity {
		return 0, fmt.Errorf("mem: out of physical memory (%d frames)", p.capacity)
	}
	f := Frame(len(p.frames))
	p.frames = append(p.frames, &frameInfo{data: make([]byte, PageSize), refs: 1})
	p.live++
	return f, nil
}

// Reset frees every frame without releasing backing storage, restoring the
// allocation order of a fresh Physical: the free list is rebuilt descending
// so successive Allocs pop frames 0, 1, 2, ... exactly as first-time append
// allocation numbered them. Frame contents are zeroed lazily by Alloc.
func (p *Physical) Reset() {
	p.free = p.free[:0]
	for i := len(p.frames) - 1; i >= 0; i-- {
		p.frames[i].refs = 0
		p.free = append(p.free, Frame(i))
	}
	p.live = 0
}

// Ref increments the reference count of f (e.g. when a second address space
// maps the frame, or when COW duplicates a mapping).
func (p *Physical) Ref(f Frame) {
	p.info(f).refs++
}

// Unref decrements the reference count of f, freeing it when it reaches zero.
func (p *Physical) Unref(f Frame) {
	fi := p.info(f)
	if fi.refs <= 0 {
		panic(fmt.Sprintf("mem: unref of free frame %d", f))
	}
	fi.refs--
	if fi.refs == 0 {
		p.free = append(p.free, f)
		p.live--
	}
}

// Refs returns the current reference count of f.
func (p *Physical) Refs(f Frame) int { return p.info(f).refs }

// Allocated returns the number of live (refcount > 0) frames. O(1): the
// count is maintained by Alloc/Unref/Reset.
func (p *Physical) Allocated() int { return p.live }

// Capacity returns the total number of frames this memory can hold.
func (p *Physical) Capacity() int { return p.capacity }

func (p *Physical) info(f Frame) *frameInfo {
	if int(f) >= len(p.frames) {
		panic(fmt.Sprintf("mem: frame %d out of range (%d allocated)", f, len(p.frames)))
	}
	fi := p.frames[f]
	if fi.refs <= 0 {
		panic(fmt.Sprintf("mem: access to free frame %d", f))
	}
	return fi
}

// Page returns the contents of frame f. The returned slice aliases the
// frame; callers must not hold it across a free.
func (p *Physical) Page(f Frame) []byte { return p.info(f).data }

// ReadU64 reads the 8-byte little-endian word at physical address pa.
// Accesses must not cross a frame boundary.
func (p *Physical) ReadU64(pa uint64) uint64 {
	off := pa & (PageSize - 1)
	if off > PageSize-8 {
		panic(fmt.Sprintf("mem: unaligned cross-page read at %#x", pa))
	}
	return binary.LittleEndian.Uint64(p.info(FrameOf(pa)).data[off:])
}

// WriteU64 writes the 8-byte little-endian word v at physical address pa.
func (p *Physical) WriteU64(pa uint64, v uint64) {
	off := pa & (PageSize - 1)
	if off > PageSize-8 {
		panic(fmt.Sprintf("mem: unaligned cross-page write at %#x", pa))
	}
	binary.LittleEndian.PutUint64(p.info(FrameOf(pa)).data[off:], v)
}

// LoadByte reads the byte at physical address pa.
func (p *Physical) LoadByte(pa uint64) byte {
	return p.info(FrameOf(pa)).data[pa&(PageSize-1)]
}

// StoreByte writes the byte at physical address pa.
func (p *Physical) StoreByte(pa uint64, v byte) {
	p.info(FrameOf(pa)).data[pa&(PageSize-1)] = v
}

// CopyFrame duplicates src into a fresh frame (the COW break path) and
// returns the copy, which has refcount 1.
func (p *Physical) CopyFrame(src Frame) (Frame, error) {
	dst, err := p.Alloc()
	if err != nil {
		return 0, err
	}
	copy(p.frames[dst].data, p.info(src).data)
	return dst, nil
}

// HashFrame returns a content hash of frame f, used by the KSM-style
// deduplication scanner to find identical pages.
func (p *Physical) HashFrame(f Frame) uint64 {
	h := fnv.New64a()
	h.Write(p.info(f).data)
	return h.Sum64()
}

// SameContents reports whether two frames hold identical bytes. Dedup must
// confirm equality after a hash match before merging.
func (p *Physical) SameContents(a, b Frame) bool {
	return bytes.Equal(p.info(a).data, p.info(b).data)
}
