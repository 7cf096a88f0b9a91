package cache

import "fmt"

// Image is a cache array's serializable mutable state: tags, line
// states, recency, SRRIP predictions, the recency clock, and the
// statistics. Geometry and replacement policy are config-derived.
// (State is taken by the MOESI enum, hence the name.)
//
// An array that is entirely zero is left nil: a cold cache (every
// warmup rung's LLC and L1s, since warmup runs the OS only) then costs
// nothing on the wire, and SetImage zero-fills the array back.
type Image struct {
	Tags    []uint64
	States  []uint8
	LastUse []uint64
	RRPVs   []uint8
	Tick    uint64
	Stats   Stats
}

// Image captures the array.
func (c *Cache) Image() Image {
	return Image{
		Tags:    nonZero(c.tags),
		States:  nonZero(c.states),
		LastUse: nonZero(c.lastUse),
		RRPVs:   nonZero(c.rrpvs),
		Tick:    c.tick,
		Stats:   c.Stats,
	}
}

// nonZero copies a, or returns nil when every element is zero.
func nonZero[T uint8 | uint64](a []T) []T {
	for _, v := range a {
		if v != 0 {
			return append([]T(nil), a...)
		}
	}
	return nil
}

// setArray restores dst from an image array; nil stands for zeros.
func setArray[T uint8 | uint64](dst, src []T) {
	if src == nil {
		clear(dst)
	} else {
		copy(dst, src)
	}
}

// SetImage restores the array in place. The receiver must have the same
// geometry the image was captured from (a nil array stands for one of
// zeros); the metrics wiring is untouched. Each set's fill mark is
// derived from the restored states.
func (c *Cache) SetImage(s Image) error {
	if !fits(s.Tags, c.tags) || !fits(s.States, c.states) ||
		!fits(s.LastUse, c.lastUse) || !fits(s.RRPVs, c.rrpvs) {
		return fmt.Errorf("cache: image geometry disagrees with the array's")
	}
	setArray(c.tags, s.Tags)
	setArray(c.states, s.States)
	setArray(c.lastUse, s.LastUse)
	setArray(c.rrpvs, s.RRPVs)
	c.tick = s.Tick
	c.Stats = s.Stats
	c.deriveFill()
	return nil
}

// deriveFill sets each set's fill mark one past its highest valid way.
func (c *Cache) deriveFill() {
	for set := range c.fill {
		f := c.ways
		for f > 0 && c.states[set*c.ways+f-1] == uint8(Invalid) {
			f--
		}
		c.fill[set] = int32(f)
	}
}

// fits reports whether an image array can restore dst: nil, or exactly
// dst's length.
func fits[T uint8 | uint64](src, dst []T) bool {
	return src == nil || len(src) == len(dst)
}
