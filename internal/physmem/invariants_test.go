package physmem

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkInvariants verifies the allocator's internal consistency: every
// free head is in range, aligned to its order and heads a block that
// overlaps no other; the head and free-frame counts match the blocks;
// every heap is a min-heap; and every free block has an entry in its
// order's heap, so popFree can still reach it.
func (b *Buddy) checkInvariants() error {
	listed := make([]uint32, b.totalFrames) // bit k: frame is in freeLists[k]
	for k, h := range b.freeLists {
		for i, f := range h {
			if i > 0 && f < h[(i-1)/2] {
				return fmt.Errorf("order-%d heap out of order at position %d", k, i)
			}
			if f >= b.totalFrames {
				return fmt.Errorf("order-%d heap entry %d beyond %d frames", k, f, b.totalFrames)
			}
			listed[f] |= 1 << k
		}
	}
	var frames, end uint64
	heads := 0
	for f := uint64(0); f < b.totalFrames; f++ {
		o := b.freeOrder[f]
		if o == 0 {
			continue
		}
		order := int(o - 1)
		if order > b.maxOrder {
			return fmt.Errorf("free block %d has order %d past the maximum %d", f, order, b.maxOrder)
		}
		if f%(1<<order) != 0 {
			return fmt.Errorf("free block %d misaligned for order %d", f, order)
		}
		if f < end {
			return fmt.Errorf("free block %d overlaps the block before it", f)
		}
		if f+(1<<order) > b.totalFrames {
			return fmt.Errorf("free block %d order %d runs past %d frames", f, order, b.totalFrames)
		}
		if listed[f]&(1<<order) == 0 {
			return fmt.Errorf("free block %d order %d missing from its heap", f, order)
		}
		end = f + 1<<order
		frames += 1 << order
		heads++
	}
	if heads != b.freeHeads {
		return fmt.Errorf("free head count %d != counted %d", b.freeHeads, heads)
	}
	if frames != b.freeFrames {
		return fmt.Errorf("free frame count %d != accounted %d", b.freeFrames, frames)
	}
	return nil
}

// checkHog verifies the hog's frame index against its frame list and
// that no pinned frame lies inside a free block.
func (h *Memhog) checkHog() error {
	indexed := 0
	for _, i := range h.pinned {
		if i != 0 {
			indexed++
		}
	}
	if indexed != len(h.frames) {
		return fmt.Errorf("index holds %d frames, list holds %d", indexed, len(h.frames))
	}
	free := make([]bool, h.buddy.totalFrames)
	h.buddy.ForEachFreeBlock(func(f uint64, o int) {
		for g := f; g < f+1<<o; g++ {
			free[g] = true
		}
	})
	for i, f := range h.frames {
		if h.pinned[f] != int32(i+1) {
			return fmt.Errorf("frame %d at position %d indexed as %d", f, i, h.pinned[f]-1)
		}
		if free[f] {
			return fmt.Errorf("pinned frame %d lies in a free block", f)
		}
	}
	return nil
}

// stateDigest hashes both states' gob encodings, for comparing two
// allocators byte for byte.
func stateDigest(t *testing.T, b *Buddy, h *Memhog) string {
	t.Helper()
	return gobDigest(t, b.State()) + gobDigest(t, h.State())
}

// restored rebuilds b and h from their captured states over fresh memory.
func restored(t *testing.T, b *Buddy, h *Memhog) (*Buddy, *Memhog) {
	t.Helper()
	rb := MustNew(b.TotalBytes())
	if err := rb.SetState(b.State()); err != nil {
		t.Fatal(err)
	}
	rh, err := Run(rb, rand.New(rand.NewSource(1)), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rh.SetState(h.State()); err != nil {
		t.Fatal(err)
	}
	return rb, rh
}

type liveBlock struct {
	frame uint64
	order int
}

// replay runs a fixed script of allocations, a compaction and frees, and
// returns what each step returned.
func replay(b *Buddy, h *Memhog) string {
	var out []any
	var got []liveBlock
	for _, order := range []int{0, 3, 0, Order2M, 1} {
		f, ok := b.AllocOrder(order)
		if ok {
			got = append(got, liveBlock{f, order})
		}
		out = append(out, f, ok)
	}
	out = append(out, h.Compact(Order2M), h.Migrations)
	for _, l := range got {
		if err := b.FreeOrder(l.frame, l.order); err != nil {
			out = append(out, err)
		}
	}
	return fmt.Sprint(out...)
}

// TestRandomOpsKeepInvariants drives random allocations, frees, targeted
// allocations, compactions, clones and state round trips over a hogged
// memory. After every step the allocator and hog must be consistent, and
// at every clone step the original, a clone and a state round trip must
// replay the same script to the same results and the same bytes.
func TestRandomOpsKeepInvariants(t *testing.T) {
	const mem = 32 << 20
	b := MustNew(mem)
	rng := rand.New(rand.NewSource(11))
	h, err := Run(b, rng, 0.4, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	var live []liveBlock
	for step := 0; step < 1500; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			order := []int{0, 0, 1, 3, Order2M}[rng.Intn(5)]
			if f, ok := b.AllocOrder(order); ok {
				live = append(live, liveBlock{f, order})
			}
		case op < 7 && len(live) > 0:
			i := rng.Intn(len(live))
			l := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := b.FreeOrder(l.frame, l.order); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case op < 8:
			order := rng.Intn(4)
			f := uint64(rng.Intn(mem/4096)) &^ (1<<order - 1)
			allFree := true
			for g := f; g < f+1<<order; g++ {
				allFree = allFree && b.coveredByFree(g)
			}
			err := b.AllocFrameAt(f, order)
			if (err == nil) != allFree {
				t.Fatalf("step %d: AllocFrameAt(%d, %d) = %v with the block free=%v", step, f, order, err, allFree)
			}
			if err == nil {
				live = append(live, liveBlock{f, order})
			}
		case op < 9:
			h.Compact(Order2M)
		default:
			cb := b.Clone()
			ch := h.Clone(cb, rng)
			rb, rh := restored(t, b, h)
			want := stateDigest(t, b, h)
			if stateDigest(t, cb, ch) != want || stateDigest(t, rb, rh) != want {
				t.Fatalf("step %d: clone or restored state differs from the original", step)
			}
			orig := replay(b, h)
			if got := replay(cb, ch); got != orig {
				t.Fatalf("step %d: clone replayed %s, original %s", step, got, orig)
			}
			if got := replay(rb, rh); got != orig {
				t.Fatalf("step %d: restored allocator replayed %s, original %s", step, got, orig)
			}
			want = stateDigest(t, b, h)
			if stateDigest(t, cb, ch) != want || stateDigest(t, rb, rh) != want {
				t.Fatalf("step %d: states diverged after the replay", step)
			}
			for _, err := range []error{cb.checkInvariants(), ch.checkHog(), rb.checkInvariants(), rh.checkHog()} {
				if err != nil {
					t.Fatalf("step %d: copy: %v", step, err)
				}
			}
		}
		if err := b.checkInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := h.checkHog(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// coveredByFree reports whether frame f lies inside some free block.
func (b *Buddy) coveredByFree(f uint64) bool {
	for k := 0; k <= b.maxOrder; k++ {
		if b.isFree(f&^(1<<k-1), k) {
			return true
		}
	}
	return false
}

// TestAllocFreeDoesNotAllocate pins the typed heaps: a steady-state
// allocate/free pair touches no Go heap memory, so boxing frames into
// interfaces cannot come back unnoticed.
func TestAllocFreeDoesNotAllocate(t *testing.T) {
	b, _ := hogged(t, 3)
	for _, order := range []int{Order4K, Order2M} {
		allocs := testing.AllocsPerRun(200, func() {
			f, ok := b.AllocOrder(order)
			if !ok {
				t.Fatalf("order-%d allocation failed", order)
			}
			if err := b.FreeOrder(f, order); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("order-%d AllocOrder+FreeOrder: %v allocations per pair, want 0", order, allocs)
		}
	}
}

// TestMemhogCloneAllocsIndependentOfPins: cloning a hog copies two
// dense arrays; its allocation count must not grow with the number of
// pinned frames.
func TestMemhogCloneAllocsIndependentOfPins(t *testing.T) {
	cloneAllocs := func(fraction float64) float64 {
		b := MustNew(64 << 20)
		h, err := Run(b, rand.New(rand.NewSource(5)), fraction, 0.97)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { h.Clone(b, nil) })
	}
	light, heavy := cloneAllocs(0.05), cloneAllocs(0.6)
	if light != heavy {
		t.Errorf("Memhog.Clone allocations: %v at 5%% pinned, %v at 60%%", light, heavy)
	}
}
