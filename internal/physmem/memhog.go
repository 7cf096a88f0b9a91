package physmem

import (
	"fmt"
	"math/rand"

	"seesaw/internal/addr"
)

// Memhog reproduces the paper's memory-fragmentation microbenchmark. It
// pins `fraction` of physical memory in scattered 4KB pages: memhog(40%)
// corresponds to the paper's scenario where memhog holds 40% of system
// memory. To scatter its pages it over-allocates by a churn factor and
// frees the excess at random positions, poking 4KB holes through the
// buddy allocator's large blocks.
//
// Memhog's pages are *movable* anonymous memory, exactly like the real
// microbenchmark's — so it also plays the role Linux's movable pages play
// during memory compaction: Compact vacates a 2MB region by migrating the
// hog's pages elsewhere, which is how OSes keep allocating superpages at
// non-trivial fragmentation (paper Section III-C).
type Memhog struct {
	buddy *Buddy
	rng   *rand.Rand
	// The pinned frames form an indexed set. frames lists them in pin
	// order, which Touch and Release walk; pinned is indexed by frame and
	// holds 1+the frame's position in frames, or 0 when the hog does not
	// pin it.
	pinned []int32
	frames []uint64
	cursor int // next Touch position in frames

	// Migrations counts pages moved by compaction.
	Migrations uint64
	// Compactions counts successful region vacations.
	Compactions uint64
}

func (h *Memhog) pin(f uint64) {
	h.frames = append(h.frames, f)
	h.pinned[f] = int32(len(h.frames))
}

func (h *Memhog) unpin(f uint64) {
	i := h.pinned[f] - 1
	last := len(h.frames) - 1
	h.frames[i] = h.frames[last]
	h.pinned[h.frames[i]] = i + 1
	h.frames = h.frames[:last]
	h.pinned[f] = 0
}

// NewMemhog returns a hog over b that pins nothing yet; rng drives
// Fragment's scatter. Run fragments memory into one, and a snapshot
// restore fills one with SetState instead.
func NewMemhog(b *Buddy, rng *rand.Rand) *Memhog {
	return &Memhog{buddy: b, rng: rng, pinned: make([]int32, b.totalFrames)}
}

// Run fragments memory, pinning `fraction` of it: it is NewMemhog
// followed by Fragment.
func Run(b *Buddy, rng *rand.Rand, fraction, touch float64) (*Memhog, error) {
	h := NewMemhog(b, rng)
	if err := h.Fragment(fraction, touch); err != nil {
		return nil, err
	}
	return h, nil
}

// Fragment pins `fraction` of memory into a hog that pins nothing yet.
// touch is the total fraction of memory transiently allocated (>=
// fraction; capped at 0.97); the excess is freed at scattered positions.
// On a long-uptime loaded system essentially all memory has been
// touched, so callers typically pass touch close to 1. The hog's rng
// makes runs deterministic.
func (h *Memhog) Fragment(fraction, touch float64) error {
	if fraction < 0 || fraction > 0.95 {
		return fmt.Errorf("physmem: memhog fraction %.2f outside [0,0.95]", fraction)
	}
	if touch < 0 || touch > 1 {
		return fmt.Errorf("physmem: memhog touch %.2f outside [0,1]", touch)
	}
	if touch < fraction {
		touch = fraction
	}
	if touch > 0.97 {
		touch = 0.97
	}
	b := h.buddy
	totalFrames := b.totalFrames
	pinTarget := uint64(float64(totalFrames) * fraction)
	allocTarget := uint64(float64(totalFrames) * touch)
	frames := make([]uint64, 0, allocTarget)
	for uint64(len(frames)) < allocTarget {
		f, ok := b.AllocOrder(Order4K)
		if !ok {
			break
		}
		frames = append(frames, f)
	}
	// Free the excess at scattered positions; keep pinTarget pinned.
	h.rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
	keep := pinTarget
	if keep > uint64(len(frames)) {
		keep = uint64(len(frames))
	}
	for _, f := range frames[keep:] {
		if err := b.FreeOrder(f, Order4K); err != nil {
			return err
		}
	}
	h.frames = frames[:keep]
	for i, f := range h.frames {
		h.pinned[f] = int32(i + 1)
	}
	return nil
}

// PinnedBytes returns how much memory the hog still holds.
func (h *Memhog) PinnedBytes() uint64 { return uint64(len(h.frames)) * 4096 }

// Release frees every pinned page, undoing the fragmentation pressure
// (free blocks coalesce again).
func (h *Memhog) Release() error {
	for _, f := range h.frames {
		if err := h.buddy.FreeOrder(f, Order4K); err != nil {
			return err
		}
	}
	clear(h.pinned)
	h.frames = nil
	h.cursor = 0
	return nil
}

// Touch returns the physical addresses of up to n pinned pages; the
// simulator uses them to generate memhog's background memory traffic. A
// cursor walks the pinned set so successive calls spread the traffic
// across the hog's footprint, deterministically.
func (h *Memhog) Touch(n int) []addr.PAddr {
	if n > len(h.frames) {
		n = len(h.frames)
	}
	out := make([]addr.PAddr, 0, n)
	for k := 0; k < n; k++ {
		if h.cursor >= len(h.frames) {
			h.cursor = 0
		}
		out = append(out, addr.PAddr(h.frames[h.cursor]*4096))
		h.cursor++
	}
	return out
}

// Compact implements osmm.Compactor: it vacates one naturally aligned
// block of 2^order frames whose frames are all either free or pinned by
// the hog (movable), migrating the hog's pages to free frames elsewhere.
// On success the block is left free and coalesced, ready for a superpage
// allocation. It picks the candidate region needing the fewest
// migrations.
func (h *Memhog) Compact(order int) bool {
	blockFrames := uint64(1) << order

	// A region is a candidate when every frame in it is free or pinned
	// by the hog. Free blocks of at least this order are already whole
	// regions and need no compaction, so only smaller ones count as free
	// here: size maps each freeOrder byte (0 off block heads) to the
	// frames it adds, which sums a region without a branch per frame.
	total := h.buddy.totalFrames
	regions := (total + blockFrames - 1) >> order
	var size [256]uint64
	for o := 0; o < min(order, Order1G+1); o++ {
		size[1+o] = 1 << o
	}
	movable := make([]uint64, regions)
	for _, f := range h.frames {
		movable[f>>order]++
	}
	// Fewest migrations wins; the ascending scan breaks ties toward the
	// lowest region, and skips regions that could not win.
	best := regions
	bestMovable := blockFrames + 1
	for r := range regions {
		if movable[r] >= bestMovable {
			continue
		}
		var free uint64
		for _, o := range h.buddy.freeOrder[r<<order : min((r+1)<<order, total)] {
			free += size[o]
		}
		if free+movable[r] == blockFrames {
			best, bestMovable = r, movable[r]
		}
	}
	if best == regions {
		return false
	}
	// Migration targets must exist: bestMovable free frames *outside*
	// the region. Free frames inside it are being vacated, so the total
	// free count must be at least a whole block's worth.
	if h.buddy.FreeBytes()/4096 < blockFrames {
		return false
	}
	start := best * blockFrames
	// Step 1: claim every free frame inside the region so replacement
	// allocations cannot land there.
	var claimed []uint64
	for f := start; f < start+blockFrames; f++ {
		if h.pinned[f] != 0 {
			continue
		}
		if err := h.buddy.AllocFrameAt(f, Order4K); err != nil {
			// Raced with our own bookkeeping; undo and bail.
			for _, c := range claimed {
				h.buddy.FreeOrder(c, Order4K)
			}
			return false
		}
		claimed = append(claimed, f)
	}
	// Step 2: migrate the hog's pages out.
	var moved []uint64
	for f := start; f < start+blockFrames; f++ {
		if h.pinned[f] == 0 {
			continue
		}
		nf, ok := h.buddy.AllocOrder(Order4K)
		if !ok {
			// Out of memory mid-migration: restore and fail.
			for _, m := range moved {
				h.buddy.FreeOrder(m, Order4K)
			}
			for _, c := range claimed {
				h.buddy.FreeOrder(c, Order4K)
			}
			return false
		}
		moved = append(moved, nf)
		h.unpin(f)
		h.pin(nf)
		h.Migrations++
	}
	// Step 3: release the whole region; the buddy coalesces it back into
	// one order-`order` block. Old pinned frames are freed here; claimed
	// frames too.
	for f := start; f < start+blockFrames; f++ {
		if err := h.buddy.FreeOrder(f, Order4K); err != nil {
			return false
		}
	}
	h.Compactions++
	return true
}
