package physmem

import "fmt"

// BuddyState is the serializable mutable state of a Buddy allocator.
// Geometry (total frames, max order) is config-derived and re-created by
// physmem.New; only the free-block structure travels, as (head frame,
// order) pairs in ascending frame order. The per-order heaps are not
// serialized: SetState rebuilds them from the free blocks, and since
// popFree returns the lowest valid head, pops depend only on the free
// set. The state is therefore canonical — equal free sets encode to
// equal bytes, whatever stale heap entries either allocator carried.
// (Schema v1 also carried the heaps' backing slices as FreeLists; gob
// skips that field when decoding a v1 blob.)
type BuddyState struct {
	FreeFrames  []uint64 // head frame of every free block, ascending
	FreeOrders  []int    // order of each block, parallel to FreeFrames
	FreeCount   uint64   // free frames, the sum of the blocks' sizes
	TotalFrames uint64   // for cross-checking against the rebuilt allocator
}

// State captures the allocator's free-block structure.
func (b *Buddy) State() BuddyState {
	s := BuddyState{
		FreeFrames:  make([]uint64, 0, b.freeHeads),
		FreeOrders:  make([]int, 0, b.freeHeads),
		FreeCount:   b.freeFrames,
		TotalFrames: b.totalFrames,
	}
	b.ForEachFreeBlock(func(f uint64, o int) {
		s.FreeFrames = append(s.FreeFrames, f)
		s.FreeOrders = append(s.FreeOrders, o)
	})
	return s
}

// SetState restores the free-block structure in place, so every holder
// of this *Buddy (the OS manager, the memhog) observes the restored
// state without rewiring. The receiver must have the same geometry the
// state was captured from. The state is checked in full before anything
// changes: on error the receiver is untouched.
func (b *Buddy) SetState(s BuddyState) error {
	if s.TotalFrames != b.totalFrames {
		return fmt.Errorf("physmem: state covers %d frames, allocator has %d", s.TotalFrames, b.totalFrames)
	}
	if len(s.FreeFrames) != len(s.FreeOrders) {
		return fmt.Errorf("physmem: free-order arrays disagree (%d frames, %d orders)", len(s.FreeFrames), len(s.FreeOrders))
	}
	var free, end uint64 // end: first frame past the previous block
	for i, f := range s.FreeFrames {
		o := s.FreeOrders[i]
		if o < 0 || o > b.maxOrder {
			return fmt.Errorf("physmem: free order %d outside [0,%d]", o, b.maxOrder)
		}
		size := uint64(1) << o
		if f >= b.totalFrames || b.totalFrames-f < size {
			return fmt.Errorf("physmem: free block %d order %d beyond %d total frames", f, o, b.totalFrames)
		}
		if f%size != 0 {
			return fmt.Errorf("physmem: free block %d misaligned for order %d", f, o)
		}
		if f < end {
			return fmt.Errorf("physmem: free block %d overlaps or precedes the block before it", f)
		}
		end = f + size
		free += size
	}
	if free != s.FreeCount {
		return fmt.Errorf("physmem: free count %d, but the free blocks hold %d frames", s.FreeCount, free)
	}
	// The heads arrive ascending, and an ascending slice is already a
	// min-heap, so each order's heap is its heads appended in order.
	for k := range b.freeLists {
		b.freeLists[k] = b.freeLists[k][:0]
	}
	clear(b.freeOrder)
	for i, f := range s.FreeFrames {
		o := s.FreeOrders[i]
		b.freeLists[o] = append(b.freeLists[o], f)
		b.freeOrder[f] = uint8(o + 1)
	}
	b.freeHeads = len(s.FreeFrames)
	b.freeFrames = s.FreeCount
	return nil
}

// MemhogState is the serializable mutable state of a Memhog: its frame
// list in pin order, its compaction cursor, and its counters. The
// per-frame index is derived from Frames on restore. (Schema v1 also
// carried the index as PinnedFrames/PinnedIdx; gob skips those fields
// when decoding a v1 blob.) The buddy and RNG it draws from are
// restored separately and stay wired.
type MemhogState struct {
	Frames      []uint64
	Cursor      int
	Migrations  uint64
	Compactions uint64
}

// State captures the hog's pinned-frame set and counters.
func (h *Memhog) State() MemhogState {
	return MemhogState{
		Frames:      append([]uint64(nil), h.frames...),
		Cursor:      h.cursor,
		Migrations:  h.Migrations,
		Compactions: h.Compactions,
	}
}

// SetState restores the hog in place; its buddy and rng pointers are
// untouched (the caller restores those separately). The frame index is
// derived from Frames, which must name distinct frames inside memory.
// On error the receiver is untouched.
func (h *Memhog) SetState(s MemhogState) error {
	if s.Cursor < 0 {
		return fmt.Errorf("physmem: negative hog cursor %d", s.Cursor)
	}
	total := h.buddy.totalFrames
	pinned := make([]int32, total)
	for i, f := range s.Frames {
		if f >= total {
			return fmt.Errorf("physmem: hog frame %d beyond %d total frames", f, total)
		}
		if pinned[f] != 0 {
			return fmt.Errorf("physmem: hog pins frame %d twice", f)
		}
		pinned[f] = int32(i + 1)
	}
	h.pinned = pinned
	h.frames = append(h.frames[:0], s.Frames...)
	h.cursor = s.Cursor
	h.Migrations = s.Migrations
	h.Compactions = s.Compactions
	return nil
}
