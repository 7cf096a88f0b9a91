// Package xrand is the simulator's deterministic random source: an
// owned copy of math/rand's default generator whose whole state lives
// in the Source, so warm simulator state can be deep-copied with a
// struct copy. Go's rand.Rand hides its generator state; Source holds
// the same 607-word additive lagged-Fibonacci generator (Mitchell &
// Reeds) inline and emits the identical value stream, so every golden
// report drawn from math/rand stays byte-identical.
//
// Each generator step is also counted, so a position serializes as
// {seed, draws} (codec.go): reseeding and replaying the count lands on
// the same state. Counting at the source level (not the call level) is
// what makes rejection-sampling consumers like Intn restorable: however
// many draws a call burned, the counter advanced with the generator.
package xrand

import "math/rand"

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
)

// Source is math/rand's default generator with its state held inline
// and every step counted. It implements rand.Source64, so rand.New(src)
// behaves byte-for-byte like rand.New(rand.NewSource(seed)).
type Source struct {
	vec  [rngLen]int64
	tap  int
	feed int
	seed int64
	n    uint64
}

// NewSource returns a source seeded like rand.NewSource(seed).
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed implements rand.Source, resetting the draw counter. It takes the
// seeded state from the stock generator: rand.NewSource(seed)'s first
// rngLen draws are exactly its state vector after those draws (draw k
// lands at vec[rngLen-rngTap-1-k], wrapping, with tap and feed back at
// their seeded positions), and stepping that state backwards rngLen
// times recovers the seeded state itself.
func (s *Source) Seed(seed int64) {
	std := rand.NewSource(seed).(rand.Source64)
	for k := 0; k < rngLen; k++ {
		s.vec[(2*rngLen-rngTap-1-k)%rngLen] = int64(std.Uint64())
	}
	s.tap, s.feed = 0, rngLen-rngTap
	for k := 0; k < rngLen; k++ {
		s.vec[s.feed] -= s.vec[s.tap]
		if s.tap++; s.tap == rngLen {
			s.tap = 0
		}
		if s.feed++; s.feed == rngLen {
			s.feed = 0
		}
	}
	s.seed, s.n = seed, 0
}

// Uint64 implements rand.Source64: one generator step.
func (s *Source) Uint64() uint64 {
	s.n++
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Draws returns how many generator steps have been taken.
func (s *Source) Draws() uint64 { return s.n }

// Clone returns an independent source at the same generator position.
// The clone and the original produce identical streams from here on and
// never influence each other.
func (s *Source) Clone() *Source {
	c := *s
	return &c
}

// New returns a rand.Rand over a new source, plus the source handle for
// later cloning. The Rand's stream is identical to
// rand.New(rand.NewSource(seed)).
func New(seed int64) (*rand.Rand, *Source) {
	s := NewSource(seed)
	return rand.New(s), s
}

// A Rand is a concrete replacement for *math/rand.Rand over a Source:
// the same value stream for the methods it offers, without the per-draw
// interface dispatch. Hot-path consumers (the workload generators) hold
// a *Rand; everything else uses rand.New over the Source, which stays
// byte-compatible.
type Rand struct {
	s *Source
}

// NewRand returns a Rand whose stream is identical to
// rand.New(rand.NewSource(seed)), plus its source for cloning.
func NewRand(seed int64) (*Rand, *Source) {
	s := NewSource(seed)
	return &Rand{s: s}, s
}

// RandOver returns a Rand drawing from an existing source.
func RandOver(s *Source) *Rand { return &Rand{s: s} }

// Int63 matches rand.Rand.Int63.
func (r *Rand) Int63() int64 { return r.s.Int63() }

// Uint64 matches rand.Rand.Uint64 over a Source64.
func (r *Rand) Uint64() uint64 { return r.s.Uint64() }

// Float64 matches rand.Rand.Float64: Go 1's value stream, resampling
// the (probability 2⁻⁵³) draws that would round up to 1.0.
func (r *Rand) Float64() float64 {
again:
	f := float64(r.Int63()) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
}
