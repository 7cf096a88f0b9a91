// Package physmem simulates physical memory with a binary buddy allocator,
// the mechanism that determines whether the OS can find the contiguous,
// aligned 2MB blocks that transparent superpages need. Fragmentation of
// the buddy free lists — e.g. from the paper's memhog microbenchmark — is
// what makes superpage allocation fail, which is the effect Figures 3 and
// 12 of the paper measure.
//
// Frames are counted in 4KB units. Order k describes a block of 2^k
// contiguous, naturally aligned 4KB frames: order 0 is a base page, order
// 9 a 2MB superpage, order 18 a 1GB superpage.
package physmem

import (
	"fmt"

	"seesaw/internal/addr"
)

// Orders of interest.
const (
	Order4K = 0
	Order2M = 9
	Order1G = 18
)

// OrderFor returns the buddy order of a page size.
func OrderFor(s addr.PageSize) int {
	switch s {
	case addr.Page4K:
		return Order4K
	case addr.Page2M:
		return Order2M
	case addr.Page1G:
		return Order1G
	}
	panic(fmt.Sprintf("physmem: invalid page size %v", s))
}

// frameHeap is a min-heap of frame numbers giving the allocator
// deterministic lowest-address-first behaviour at O(log n). Entries may
// be stale (the block was removed by coalescing or targeted allocation);
// popFree validates each candidate against freeOrder before using it.
//
// push and pop sift exactly as the standard library's heap.Push and
// heap.Pop do. The layout is not observable: heaps are not serialized
// (SetState rebuilds them from the free blocks), and popFree returns the
// lowest valid head whatever stale entries surround it.
type frameHeap []uint64

func (h *frameHeap) push(f uint64) {
	s := append(*h, f)
	*h = s
	for j := len(s) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || s[j] >= s[i] {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *frameHeap) pop() uint64 {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2] < s[j] {
			j = j2 // right child
		}
		if s[j] >= s[i] {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}

// Buddy is a binary buddy allocator over a simulated physical memory.
type Buddy struct {
	totalFrames uint64
	maxOrder    int

	// freeLists[k] holds the start frames of free order-k blocks.
	freeLists []frameHeap
	// freeOrder is indexed by frame: 1+order when the frame heads a free
	// block of that order, 0 otherwise. It gives O(1) buddy-coalescing
	// checks at one byte per frame.
	freeOrder []uint8
	// freeHeads counts the nonzero entries of freeOrder.
	freeHeads int

	freeFrames uint64
}

// New creates a buddy allocator managing totalBytes of physical memory.
// totalBytes must be a multiple of the largest block size implied by
// maxOrder blocks; memory is seeded as maximal free blocks.
func New(totalBytes uint64) (*Buddy, error) {
	if totalBytes == 0 || totalBytes%(4096<<Order2M) != 0 {
		return nil, fmt.Errorf("physmem: total %d bytes not a multiple of 2MB", totalBytes)
	}
	frames := totalBytes / 4096
	maxOrder := Order1G
	for (uint64(1) << maxOrder) > frames {
		maxOrder--
	}
	b := &Buddy{
		totalFrames: frames,
		maxOrder:    maxOrder,
		freeLists:   make([]frameHeap, maxOrder+1),
		freeOrder:   make([]uint8, frames),
		freeFrames:  frames,
	}
	// Seed free memory greedily with the largest blocks that fit.
	frame := uint64(0)
	for frame < frames {
		k := maxOrder
		for (uint64(1)<<k) > frames-frame || frame%(1<<k) != 0 {
			k--
		}
		b.pushFree(frame, k)
		frame += 1 << k
	}
	return b, nil
}

// MustNew is New that panics on error.
func MustNew(totalBytes uint64) *Buddy {
	b, err := New(totalBytes)
	if err != nil {
		panic(err)
	}
	return b
}

// isFree reports whether frame heads a free block of exactly this order.
func (b *Buddy) isFree(frame uint64, order int) bool {
	return b.freeOrder[frame] == uint8(order+1)
}

func (b *Buddy) pushFree(frame uint64, order int) {
	b.freeLists[order].push(frame)
	b.freeOrder[frame] = uint8(order + 1)
	b.freeHeads++
}

// popFree removes and returns the lowest free block of exactly this order,
// or false if none exists. Heap entries invalidated by coalescing or
// targeted allocation are recognized (freeOrder no longer lists them at
// this order) and skipped.
func (b *Buddy) popFree(order int) (uint64, bool) {
	h := &b.freeLists[order]
	for len(*h) > 0 {
		frame := h.pop()
		if !b.isFree(frame, order) {
			continue // stale entry
		}
		b.removeFree(frame)
		return frame, true
	}
	return 0, false
}

// removeFree removes a specific free block (used when coalescing and by
// targeted allocation); its heap entry goes stale and is skipped later.
func (b *Buddy) removeFree(frame uint64) {
	b.freeOrder[frame] = 0
	b.freeHeads--
}

// AllocOrder allocates a naturally aligned block of 2^order frames,
// splitting larger blocks as needed, lowest address first. It returns the
// start frame and whether the allocation succeeded.
func (b *Buddy) AllocOrder(order int) (uint64, bool) {
	if order < 0 || order > b.maxOrder {
		return 0, false
	}
	// Find the smallest order >= requested with a free block.
	k := order
	var frame uint64
	for {
		if k > b.maxOrder {
			return 0, false
		}
		if f, ok := b.popFree(k); ok {
			frame = f
			break
		}
		k++
	}
	// Split back down, returning the high halves to the free lists.
	for k > order {
		k--
		b.pushFree(frame+(1<<k), k)
	}
	b.freeFrames -= 1 << order
	return frame, true
}

// Alloc allocates a page of the given size, returning its base physical
// address.
func (b *Buddy) Alloc(s addr.PageSize) (addr.PAddr, bool) {
	frame, ok := b.AllocOrder(OrderFor(s))
	if !ok {
		return 0, false
	}
	return addr.PAddr(frame * 4096), true
}

// AllocFrameAt allocates the specific naturally aligned order-`order`
// block starting at frame, splitting any larger free block that covers
// it. It fails if the block is not currently (entirely) free. Memory
// compaction uses this to claim the region it has just vacated.
func (b *Buddy) AllocFrameAt(frame uint64, order int) error {
	if order < 0 || order > b.maxOrder || frame%(1<<order) != 0 || frame+(1<<order) > b.totalFrames {
		return fmt.Errorf("physmem: bad targeted alloc of frame %d order %d", frame, order)
	}
	// Find the free block covering [frame, frame+2^order).
	cover := -1
	var coverHead uint64
	for k := order; k <= b.maxOrder; k++ {
		head := frame &^ ((uint64(1) << k) - 1)
		if b.isFree(head, k) {
			cover, coverHead = k, head
			break
		}
	}
	if cover < 0 {
		return fmt.Errorf("physmem: frame %d order %d not free", frame, order)
	}
	b.removeFree(coverHead)
	// Split the covering block down, keeping the halves that do not
	// contain the target.
	for cover > order {
		cover--
		half := coverHead + (1 << cover)
		if frame >= half {
			b.pushFree(coverHead, cover)
			coverHead = half
		} else {
			b.pushFree(half, cover)
		}
	}
	b.freeFrames -= 1 << order
	return nil
}

// ForEachFreeBlock visits every free block (head frame and order) in
// ascending frame order.
func (b *Buddy) ForEachFreeBlock(fn func(frame uint64, order int)) {
	for f := uint64(0); f < b.totalFrames; {
		if o := b.freeOrder[f]; o != 0 {
			fn(f, int(o-1))
			f += 1 << (o - 1)
		} else {
			f++
		}
	}
}

// FreeOrder frees a previously allocated block, coalescing with free
// buddies as far as possible. Freeing a block that was not allocated at
// this order corrupts the allocator; callers own that bookkeeping.
func (b *Buddy) FreeOrder(frame uint64, order int) error {
	if order < 0 || order > b.maxOrder || frame%(1<<order) != 0 || frame+(1<<order) > b.totalFrames {
		return fmt.Errorf("physmem: bad free of frame %d order %d", frame, order)
	}
	if b.freeOrder[frame] != 0 {
		return fmt.Errorf("physmem: double free of frame %d", frame)
	}
	b.freeFrames += 1 << order
	for order < b.maxOrder {
		buddy := frame ^ (1 << order)
		if !b.isFree(buddy, order) {
			break
		}
		b.removeFree(buddy)
		if buddy < frame {
			frame = buddy
		}
		order++
	}
	b.pushFree(frame, order)
	return nil
}

// Free frees a page of the given size at the given base address.
func (b *Buddy) Free(p addr.PAddr, s addr.PageSize) error {
	return b.FreeOrder(uint64(p)/4096, OrderFor(s))
}

// TotalBytes returns the managed memory size.
func (b *Buddy) TotalBytes() uint64 { return b.totalFrames * 4096 }

// FreeBytes returns the number of free bytes.
func (b *Buddy) FreeBytes() uint64 { return b.freeFrames * 4096 }

// MaxOrder returns the largest supported order.
func (b *Buddy) MaxOrder() int { return b.maxOrder }

// FreeBlocks returns how many free blocks exist of exactly the given
// order.
func (b *Buddy) FreeBlocks(order int) int {
	n := 0
	b.ForEachFreeBlock(func(_ uint64, o int) {
		if o == order {
			n++
		}
	})
	return n
}

// FreeBytesAtLeast returns the number of free bytes held in blocks of at
// least the given order — the memory actually usable for superpages of
// that order without compaction.
func (b *Buddy) FreeBytesAtLeast(order int) uint64 {
	var frames uint64
	b.ForEachFreeBlock(func(_ uint64, o int) {
		if o >= order {
			frames += 1 << o
		}
	})
	return frames * 4096
}

// Fragmentation returns 1 - (free bytes in >=2MB blocks / free bytes): 0
// means all free memory is superpage-usable, 1 means none of it is.
func (b *Buddy) Fragmentation() float64 {
	free := b.FreeBytes()
	if free == 0 {
		return 1
	}
	return 1 - float64(b.FreeBytesAtLeast(Order2M))/float64(free)
}
