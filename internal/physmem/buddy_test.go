package physmem

import (
	"math/rand"
	"testing"

	"seesaw/internal/addr"
)

func TestNewSeedsAllMemoryFree(t *testing.T) {
	b := MustNew(64 << 20) // 64MB
	if b.FreeBytes() != 64<<20 {
		t.Fatalf("free = %d, want all", b.FreeBytes())
	}
	if b.Fragmentation() != 0 {
		t.Fatalf("fresh memory fragmentation = %v, want 0", b.Fragmentation())
	}
	if err := b.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsBadSizes(t *testing.T) {
	for _, sz := range []uint64{0, 4096, 3 << 20, 2<<20 + 4096} {
		if _, err := New(sz); err == nil {
			t.Errorf("New(%d): expected error", sz)
		}
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	b := MustNew(16 << 20)
	p, ok := b.Alloc(addr.Page2M)
	if !ok {
		t.Fatal("2MB alloc failed on empty memory")
	}
	if uint64(p)%(2<<20) != 0 {
		t.Errorf("2MB page at %#x not 2MB-aligned", uint64(p))
	}
	if b.FreeBytes() != 14<<20 {
		t.Errorf("free = %d", b.FreeBytes())
	}
	if err := b.Free(p, addr.Page2M); err != nil {
		t.Fatal(err)
	}
	if b.FreeBytes() != 16<<20 {
		t.Errorf("free after free = %d", b.FreeBytes())
	}
	if err := b.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocLowestFirst(t *testing.T) {
	b := MustNew(16 << 20)
	f0, _ := b.AllocOrder(Order4K)
	f1, _ := b.AllocOrder(Order4K)
	if f0 != 0 || f1 != 1 {
		t.Errorf("first allocations at frames %d,%d, want 0,1", f0, f1)
	}
}

func TestCoalescing(t *testing.T) {
	b := MustNew(4 << 20) // exactly 2 order-9 blocks
	var frames []uint64
	for {
		f, ok := b.AllocOrder(Order4K)
		if !ok {
			break
		}
		frames = append(frames, f)
	}
	if len(frames) != 1024 {
		t.Fatalf("allocated %d 4KB pages, want 1024", len(frames))
	}
	if _, ok := b.AllocOrder(Order2M); ok {
		t.Fatal("2MB alloc succeeded with no free memory")
	}
	for _, f := range frames {
		if err := b.FreeOrder(f, Order4K); err != nil {
			t.Fatal(err)
		}
	}
	// After freeing everything, both 2MB blocks must have coalesced.
	if got := b.FreeBytesAtLeast(Order2M); got != 4<<20 {
		t.Errorf("coalesced superpage-usable bytes = %d, want all", got)
	}
	if _, ok := b.AllocOrder(Order2M); !ok {
		t.Error("2MB alloc failed after coalescing")
	}
	if err := b.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitAndAlignment(t *testing.T) {
	b := MustNew(8 << 20)
	// Take one 4KB page: this splits an order-9 (or larger) block; a
	// following 2MB alloc must still succeed and be aligned.
	if _, ok := b.AllocOrder(Order4K); !ok {
		t.Fatal("4KB alloc failed")
	}
	f, ok := b.AllocOrder(Order2M)
	if !ok {
		t.Fatal("2MB alloc failed")
	}
	if f%(1<<Order2M) != 0 {
		t.Errorf("2MB block frame %d misaligned", f)
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	b := MustNew(4 << 20)
	f, _ := b.AllocOrder(Order4K)
	if err := b.FreeOrder(f, Order4K); err != nil {
		t.Fatal(err)
	}
	if err := b.FreeOrder(f, Order4K); err == nil {
		t.Error("double free not detected")
	}
}

func TestBadFreeArguments(t *testing.T) {
	b := MustNew(4 << 20)
	if err := b.FreeOrder(1, Order2M); err == nil {
		t.Error("misaligned free not detected")
	}
	if err := b.FreeOrder(1<<30, Order4K); err == nil {
		t.Error("out-of-range free not detected")
	}
	if err := b.FreeOrder(0, -1); err == nil {
		t.Error("negative order not detected")
	}
}

func TestRandomAllocFreeInvariants(t *testing.T) {
	b := MustNew(32 << 20)
	rng := rand.New(rand.NewSource(42))
	type block struct {
		frame uint64
		order int
	}
	var live []block
	for i := 0; i < 5000; i++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			order := []int{0, 0, 0, 1, 3, 9}[rng.Intn(6)]
			if f, ok := b.AllocOrder(order); ok {
				live = append(live, block{f, order})
			}
		} else {
			i := rng.Intn(len(live))
			bl := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := b.FreeOrder(bl.frame, bl.order); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// No two live blocks may overlap.
	seen := make([]bool, 32<<20/4096)
	for _, bl := range live {
		for f := bl.frame; f < bl.frame+(1<<bl.order); f++ {
			if seen[f] {
				t.Fatalf("frame %d allocated twice", f)
			}
			seen[f] = true
		}
	}
	// Free everything: memory must return to fully coalesced.
	for _, bl := range live {
		if err := b.FreeOrder(bl.frame, bl.order); err != nil {
			t.Fatal(err)
		}
	}
	if b.FreeBytes() != 32<<20 {
		t.Errorf("free = %d after releasing all", b.FreeBytes())
	}
	if b.Fragmentation() != 0 {
		t.Errorf("fragmentation = %v after releasing all", b.Fragmentation())
	}
}

func TestMemhogFragmentationGrowsWithFraction(t *testing.T) {
	prevFail := -1.0
	for _, frac := range []float64{0.0, 0.4, 0.8} {
		b := MustNew(256 << 20)
		rng := rand.New(rand.NewSource(7))
		h, err := Run(b, rng, frac, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		// Try to allocate 2MB pages; count the success rate.
		want := 40
		got := 0
		for i := 0; i < want; i++ {
			if _, ok := b.AllocOrder(Order2M); ok {
				got++
			}
		}
		fail := 1 - float64(got)/float64(want)
		if fail < prevFail {
			t.Errorf("memhog(%.0f%%): 2MB failure rate %.2f decreased vs lighter fragmentation %.2f",
				frac*100, fail, prevFail)
		}
		prevFail = fail
		if frac == 0 && fail != 0 {
			t.Errorf("memhog(0%%): 2MB allocations failed (rate %.2f)", fail)
		}
		_ = h.PinnedBytes()
	}
}

func TestMemhogReleaseRestoresMemory(t *testing.T) {
	b := MustNew(64 << 20)
	rng := rand.New(rand.NewSource(1))
	h, err := Run(b, rng, 0.6, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if h.PinnedBytes() == 0 {
		t.Fatal("memhog pinned nothing")
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	if b.FreeBytes() != 64<<20 {
		t.Errorf("free = %d after release", b.FreeBytes())
	}
	if b.Fragmentation() != 0 {
		t.Errorf("fragmentation = %v after release", b.Fragmentation())
	}
}

func TestMemhogArgValidation(t *testing.T) {
	b := MustNew(4 << 20)
	rng := rand.New(rand.NewSource(1))
	if _, err := Run(b, rng, 1.5, 0.5); err == nil {
		t.Error("fraction > 0.95 must error")
	}
	if _, err := Run(b, rng, 0.5, -0.1); err == nil {
		t.Error("bad release ratio must error")
	}
}

func TestMemhogTouch(t *testing.T) {
	b := MustNew(16 << 20)
	rng := rand.New(rand.NewSource(3))
	h, err := Run(b, rng, 0.3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	pages := h.Touch(10)
	if len(pages) != 10 {
		t.Fatalf("Touch(10) returned %d pages", len(pages))
	}
	huge := h.Touch(1 << 30)
	if uint64(len(huge))*4096 != h.PinnedBytes() {
		t.Errorf("Touch(all) = %d pages, want %d", len(huge), h.PinnedBytes()/4096)
	}
}
