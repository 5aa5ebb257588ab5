package mem

import (
	"testing"
	"testing/quick"
)

func TestAllocZeroedAndRefcounted(t *testing.T) {
	p := NewPhysical(4, 200)
	f, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if p.Refs(f) != 1 {
		t.Fatalf("fresh frame refs = %d, want 1", p.Refs(f))
	}
	for i, b := range p.Page(f) {
		if b != 0 {
			t.Fatalf("fresh frame byte %d = %d, want 0", i, b)
		}
	}
}

func TestOutOfMemory(t *testing.T) {
	p := NewPhysical(2, 200)
	if _, err := p.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(); err == nil {
		t.Fatal("third alloc in a 2-frame memory must fail")
	}
}

func TestFreeListReuseZeroes(t *testing.T) {
	p := NewPhysical(1, 200)
	f, _ := p.Alloc()
	p.StoreByte(f.Addr()+7, 0xAB)
	p.Unref(f)
	g, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if g != f {
		t.Fatalf("expected frame reuse, got %d want %d", g, f)
	}
	if p.LoadByte(g.Addr()+7) != 0 {
		t.Fatal("reused frame must be zeroed")
	}
}

func TestRefUnref(t *testing.T) {
	p := NewPhysical(2, 200)
	f, _ := p.Alloc()
	p.Ref(f)
	p.Unref(f)
	if p.Refs(f) != 1 {
		t.Fatalf("refs = %d, want 1", p.Refs(f))
	}
	p.Unref(f)
	defer func() {
		if recover() == nil {
			t.Error("access to freed frame must panic")
		}
	}()
	p.LoadByte(f.Addr())
}

func TestReadWriteU64RoundTrip(t *testing.T) {
	p := NewPhysical(2, 200)
	f, _ := p.Alloc()
	base := f.Addr()
	f2 := func(off16 uint16, v uint64) bool {
		off := uint64(off16) % (PageSize - 8)
		off &^= 7
		p.WriteU64(base+off, v)
		return p.ReadU64(base+off) == v
	}
	if err := quick.Check(f2, nil); err != nil {
		t.Error(err)
	}
}

func TestCrossPageAccessPanics(t *testing.T) {
	p := NewPhysical(2, 200)
	f, _ := p.Alloc()
	defer func() {
		if recover() == nil {
			t.Error("cross-page word access must panic")
		}
	}()
	p.ReadU64(f.Addr() + PageSize - 4)
}

func TestCopyFrameAndSameContents(t *testing.T) {
	p := NewPhysical(4, 200)
	a, _ := p.Alloc()
	for i := 0; i < PageSize; i += 8 {
		p.WriteU64(a.Addr()+uint64(i), uint64(i)*31)
	}
	b, err := p.CopyFrame(a)
	if err != nil {
		t.Fatal(err)
	}
	if !p.SameContents(a, b) {
		t.Fatal("copied frame must match source")
	}
	if p.HashFrame(a) != p.HashFrame(b) {
		t.Fatal("hashes of identical frames must match")
	}
	p.StoreByte(b.Addr(), 1)
	if p.SameContents(a, b) {
		t.Fatal("frames differ after write")
	}
	if p.HashFrame(a) == p.HashFrame(b) {
		t.Fatal("hashes should differ after write (fnv collision would be astonishing here)")
	}
}

func TestFrameAddrRoundTrip(t *testing.T) {
	f := func(n uint32) bool {
		fr := Frame(n)
		return FrameOf(fr.Addr()) == fr && FrameOf(fr.Addr()+PageSize-1) == fr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllocatedCount(t *testing.T) {
	p := NewPhysical(8, 200)
	var fs []Frame
	for i := 0; i < 5; i++ {
		f, _ := p.Alloc()
		fs = append(fs, f)
	}
	if p.Allocated() != 5 {
		t.Fatalf("allocated = %d, want 5", p.Allocated())
	}
	p.Unref(fs[2])
	if p.Allocated() != 4 {
		t.Fatalf("allocated = %d, want 4", p.Allocated())
	}
}

// TestAllocReuseOfSharedFrame: a frame shared by two owners (Ref, as a
// simulated copy-on-write mapping or a dedup merge shares one) keeps its
// contents for the survivor when the other owner drops it, and Alloc does
// not hand it out; only after the last Unref does it come back, zeroed.
// (The name predates the removal of host-level snapshot sharing, DESIGN.md
// §13; refcount sharing is the frame sharing that remains.)
func TestAllocReuseOfSharedFrame(t *testing.T) {
	p := NewPhysical(2, 200)
	f, _ := p.Alloc()
	p.WriteU64(f.Addr(), 7)
	p.Ref(f) // a second owner maps the frame
	p.Unref(f)
	if got := p.ReadU64(f.Addr()); got != 7 {
		t.Fatalf("surviving owner reads %d, want 7", got)
	}
	g, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if g == f {
		t.Fatal("Alloc handed out a frame that still has an owner")
	}
	if got := p.ReadU64(f.Addr()); got != 7 {
		t.Fatalf("shared frame corrupted by an unrelated Alloc: reads %d, want 7", got)
	}

	p.Unref(f) // last owner
	h, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if h != f {
		t.Fatalf("free-list reuse returned frame %d, want %d", h, f)
	}
	for i, b := range p.Page(h) {
		if b != 0 {
			t.Fatalf("reused frame byte %d = %d, want 0", i, b)
		}
	}
}

// TestCopyFromRewindsGrowth: a memory that grew and was then Reset must
// replay a fresh memory's allocation order frame for frame and hand every
// frame back zeroed, so a pooled machine allocates exactly as a new one.
// (The name predates the removal of snapshot restore, DESIGN.md §13; Reset is
// the rewind that remains.)
func TestCopyFromRewindsGrowth(t *testing.T) {
	used := NewPhysical(8, 200)
	for i := 0; i < 5; i++ {
		f, _ := used.Alloc()
		used.WriteU64(f.Addr(), uint64(11+i))
	}
	used.Reset()
	if used.Allocated() != 0 {
		t.Fatalf("allocated after Reset = %d, want 0", used.Allocated())
	}

	fresh := NewPhysical(8, 200)
	for i := 0; i < 8; i++ {
		a, errA := used.Alloc()
		b, errB := fresh.Alloc()
		if errA != nil || errB != nil {
			t.Fatalf("alloc %d: %v / %v", i, errA, errB)
		}
		if a != b {
			t.Fatalf("alloc %d after Reset returned frame %d, a fresh memory %d", i, a, b)
		}
		if got := used.ReadU64(a.Addr()); got != 0 {
			t.Fatalf("frame %d after Reset reads %d, want 0", a, got)
		}
	}
	if _, err := used.Alloc(); err == nil {
		t.Fatal("Reset memory allocated past its capacity")
	}
}

// TestAllocatedO1AcrossResetAndUnref: the live-frame counter must track
// Alloc/Unref/Reset exactly (it replaced an O(frames) scan).
func TestAllocatedO1AcrossResetAndUnref(t *testing.T) {
	p := NewPhysical(16, 200)
	var fs []Frame
	for i := 0; i < 10; i++ {
		f, _ := p.Alloc()
		fs = append(fs, f)
	}
	p.Ref(fs[0]) // second ref must not change the live count on first Unref
	p.Unref(fs[0])
	if p.Allocated() != 10 {
		t.Fatalf("allocated = %d, want 10 (frame still referenced)", p.Allocated())
	}
	p.Unref(fs[0])
	p.Unref(fs[1])
	if p.Allocated() != 8 {
		t.Fatalf("allocated = %d, want 8", p.Allocated())
	}
	p.Reset()
	if p.Allocated() != 0 {
		t.Fatalf("allocated after Reset = %d, want 0", p.Allocated())
	}
	f, _ := p.Alloc()
	if p.Allocated() != 1 || f != 0 {
		t.Fatalf("first post-Reset alloc: frame %d, allocated %d", f, p.Allocated())
	}
}
