package physmem

import (
	"math/rand"
	"slices"
)

// Clone returns an independent deep copy of the allocator: same free
// blocks, same fragmentation, same deterministic lowest-address-first
// behaviour from here on. Copying a heap's backing slice preserves the
// heap invariant, so the clone pops the same frames in the same order.
func (b *Buddy) Clone() *Buddy {
	c := &Buddy{
		totalFrames: b.totalFrames,
		maxOrder:    b.maxOrder,
		freeLists:   make([]frameHeap, len(b.freeLists)),
		freeOrder:   slices.Clone(b.freeOrder),
		freeHeads:   b.freeHeads,
		freeFrames:  b.freeFrames,
	}
	for k, h := range b.freeLists {
		c.freeLists[k] = slices.Clone(h)
	}
	return c
}

// Clone returns an independent deep copy of the hog pinned into buddy,
// drawing from rng. The caller passes the cloned buddy and a rand whose
// generator sits at the same position as the original's (see
// internal/xrand) so compactions replay identically.
func (h *Memhog) Clone(buddy *Buddy, rng *rand.Rand) *Memhog {
	return &Memhog{
		buddy:       buddy,
		rng:         rng,
		pinned:      slices.Clone(h.pinned),
		frames:      slices.Clone(h.frames),
		cursor:      h.cursor,
		Migrations:  h.Migrations,
		Compactions: h.Compactions,
	}
}
