package physmem

import "fmt"

// BuddyState is the serializable mutable state of a Buddy allocator.
// Geometry (total frames, max order) is config-derived and re-created by
// physmem.New; only the free-block structure travels. FreeLists carries
// each order's heap backing slice verbatim — copying a heap's backing
// slice preserves the heap invariant, so the restored allocator pops the
// same frames in the same order. The free blocks themselves travel as
// (head frame, order) pairs in ascending frame order.
type BuddyState struct {
	FreeLists   [][]uint64
	FreeFrames  []uint64 // head frame of every free block, ascending
	FreeOrders  []int    // order of each block, parallel to FreeFrames
	FreeCount   uint64   // free frames, the sum of the blocks' sizes
	TotalFrames uint64   // for cross-checking against the rebuilt allocator
}

// State captures the allocator's free-block structure.
func (b *Buddy) State() BuddyState {
	s := BuddyState{
		FreeLists:   make([][]uint64, len(b.freeLists)),
		FreeFrames:  make([]uint64, 0, b.freeHeads),
		FreeOrders:  make([]int, 0, b.freeHeads),
		FreeCount:   b.freeFrames,
		TotalFrames: b.totalFrames,
	}
	for k, h := range b.freeLists {
		s.FreeLists[k] = append([]uint64(nil), h...)
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
	if len(s.FreeLists) != len(b.freeLists) {
		return fmt.Errorf("physmem: state has %d order lists, allocator has %d", len(s.FreeLists), len(b.freeLists))
	}
	if s.TotalFrames != b.totalFrames {
		return fmt.Errorf("physmem: state covers %d frames, allocator has %d", s.TotalFrames, b.totalFrames)
	}
	if len(s.FreeFrames) != len(s.FreeOrders) {
		return fmt.Errorf("physmem: free-order arrays disagree (%d frames, %d orders)", len(s.FreeFrames), len(s.FreeOrders))
	}
	for k, list := range s.FreeLists {
		for _, f := range list {
			if f >= b.totalFrames {
				return fmt.Errorf("physmem: order-%d free-list entry %d beyond %d total frames", k, f, b.totalFrames)
			}
		}
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
	for k := range b.freeLists {
		b.freeLists[k] = append(b.freeLists[k][:0], s.FreeLists[k]...)
	}
	clear(b.freeOrder)
	for i, f := range s.FreeFrames {
		b.freeOrder[f] = uint8(s.FreeOrders[i] + 1)
	}
	b.freeHeads = len(s.FreeFrames)
	b.freeFrames = s.FreeCount
	return nil
}

// MemhogState is the serializable mutable state of a Memhog: which
// frames it pins, its compaction cursor, and its counters. Frames is the
// hog's frame list in order; PinnedFrames/PinnedIdx repeat it as
// (frame, position) pairs in ascending frame order, which the wire
// format carries so snapshot bytes stay stable. The buddy and RNG it
// draws from are restored separately and stay wired.
type MemhogState struct {
	PinnedFrames []uint64 // pinned frames, ascending
	PinnedIdx    []int    // each frame's position in Frames, parallel to PinnedFrames
	Frames       []uint64
	Cursor       int
	Migrations   uint64
	Compactions  uint64
}

// State captures the hog's pinned-frame set and counters.
func (h *Memhog) State() MemhogState {
	s := MemhogState{
		PinnedFrames: make([]uint64, 0, len(h.frames)),
		PinnedIdx:    make([]int, 0, len(h.frames)),
		Frames:       append([]uint64(nil), h.frames...),
		Cursor:       h.cursor,
		Migrations:   h.Migrations,
		Compactions:  h.Compactions,
	}
	for f, i := range h.pinned {
		if i != 0 {
			s.PinnedFrames = append(s.PinnedFrames, uint64(f))
			s.PinnedIdx = append(s.PinnedIdx, int(i-1))
		}
	}
	return s
}

// SetState restores the hog in place; its buddy and rng pointers are
// untouched (the caller restores those separately). The frame index is
// derived from Frames, and PinnedFrames/PinnedIdx must describe exactly
// that index. On error the receiver is untouched.
func (h *Memhog) SetState(s MemhogState) error {
	if len(s.PinnedFrames) != len(s.PinnedIdx) {
		return fmt.Errorf("physmem: pinned arrays disagree (%d frames, %d indices)", len(s.PinnedFrames), len(s.PinnedIdx))
	}
	if len(s.PinnedFrames) != len(s.Frames) {
		return fmt.Errorf("physmem: pinned index lists %d frames, the hog holds %d", len(s.PinnedFrames), len(s.Frames))
	}
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
	for i, f := range s.PinnedFrames {
		if i > 0 && f <= s.PinnedFrames[i-1] {
			return fmt.Errorf("physmem: pinned frames not strictly ascending at %d", f)
		}
		if idx := s.PinnedIdx[i]; idx < 0 || idx >= len(s.Frames) || s.Frames[idx] != f {
			return fmt.Errorf("physmem: pinned index %d for frame %d disagrees with the hog's frame list", idx, f)
		}
	}
	h.pinned = pinned
	h.frames = append(h.frames[:0], s.Frames...)
	h.cursor = s.Cursor
	h.Migrations = s.Migrations
	h.Compactions = s.Compactions
	return nil
}
