package xrand

import (
	"math/rand"
	"testing"
)

// streamSeeds covers zero, small, negative and large seeds: seeding
// goes through the stock generator, so each must land on its state.
var streamSeeds = []int64{0, 1, -7, 1 << 40}

// streamCounts are the draw counts the clone and restore tests stop at: fresh,
// one draw, both sides of one full pass over the 607-word state ring,
// and deep into the stream.
var streamCounts = []int{0, 1, 606, 607, 608, 250_000}

// streamTail is how many draws each check compares past a stop.
const streamTail = 1_000

// stdStream returns the first n Uint64 draws of rand.NewSource(seed).
func stdStream(seed int64, n int) []uint64 {
	std := rand.NewSource(seed).(rand.Source64)
	out := make([]uint64, n)
	for i := range out {
		out[i] = std.Uint64()
	}
	return out
}

// TestFallbackPathStream: the owned generator, reached through a plain
// Source and through RandOver, reproduces the stock source's stream
// exactly from the first draw on, for every test seed. (The name dates
// from when this generator backed an unsafe mirror of math/rand's
// state; it is now the only one.)
func TestFallbackPathStream(t *testing.T) {
	for _, seed := range streamSeeds {
		want := stdStream(seed, streamCounts[len(streamCounts)-1]+streamTail)
		src := NewSource(seed)
		for i, w := range want {
			if g := src.Uint64(); g != w {
				t.Fatalf("seed %d Uint64 draw %d: got %#x want %#x", seed, i, g, w)
			}
		}
		if src.Draws() != uint64(len(want)) {
			t.Fatalf("seed %d: Draws() = %d, want %d", seed, src.Draws(), len(want))
		}

		std := rand.New(rand.NewSource(seed))
		r := RandOver(NewSource(seed))
		for i := 0; i < 3*streamTail; i++ {
			switch i % 3 {
			case 0:
				if w, g := std.Float64(), r.Float64(); w != g {
					t.Fatalf("seed %d Float64 draw %d: got %v want %v", seed, i, g, w)
				}
			case 1:
				if w, g := std.Int63(), r.Int63(); w != g {
					t.Fatalf("seed %d Int63 draw %d: got %v want %v", seed, i, g, w)
				}
			case 2:
				if w, g := std.Uint64(), r.Uint64(); w != g {
					t.Fatalf("seed %d Uint64 draw %d: got %v want %v", seed, i, g, w)
				}
			}
		}
	}
}

// TestFallbackInt63Direct covers Source.Int63, which rand.Rand never
// reaches (it draws through Uint64 on a Source64), against the stock
// source's own Int63, interleaved with Uint64 so both advance one ring.
func TestFallbackInt63Direct(t *testing.T) {
	for _, seed := range streamSeeds {
		want := stdStream(seed, streamCounts[len(streamCounts)-1]+streamTail)
		std := rand.NewSource(seed)
		src := NewSource(seed)
		for i, w := range want {
			if i%2 == 0 {
				if g := src.Uint64(); g != w {
					t.Fatalf("seed %d Uint64 draw %d: got %#x want %#x", seed, i, g, w)
				}
				std.Int63()
			} else if g, ws := src.Int63(), std.Int63(); g != int64(w&rngMask) || g != ws {
				t.Fatalf("seed %d Int63 draw %d: got %#x want %#x (stock Int63 %#x)", seed, i, g, w&rngMask, ws)
			}
		}
		if src.Draws() != uint64(len(want)) {
			t.Fatalf("seed %d: Draws() = %d, want %d", seed, src.Draws(), len(want))
		}
	}
}

// TestFallbackReplayClone: at every stop a Clone continues with the
// stock stream, and advancing it leaves the original where it was.
func TestFallbackReplayClone(t *testing.T) {
	for _, seed := range streamSeeds {
		want := stdStream(seed, streamCounts[len(streamCounts)-1]+streamTail)
		src := NewSource(seed)
		at := 0
		for _, stop := range streamCounts {
			for ; at < stop; at++ {
				src.Uint64()
			}
			clone := src.Clone()
			if clone.Draws() != uint64(stop) {
				t.Fatalf("seed %d at %d: clone draws %d", seed, stop, clone.Draws())
			}
			for k := 0; k < streamTail; k++ {
				if g, w := clone.Uint64(), want[stop+k]; g != w {
					t.Fatalf("seed %d at %d: clone draw %d = %#x, want %#x", seed, stop, k, g, w)
				}
			}
			if src.Draws() != uint64(stop) {
				t.Fatalf("seed %d at %d: advancing the clone moved the original to %d draws", seed, stop, src.Draws())
			}
		}
	}
}

// TestRandMatchesStdlib: the concrete Rand must reproduce
// rand.New(rand.NewSource(seed))'s stream exactly across every method
// it offers, interleaved.
func TestRandMatchesStdlib(t *testing.T) {
	for _, seed := range append([]int64{99}, streamSeeds...) {
		want := rand.New(rand.NewSource(seed))
		got, _ := NewRand(seed)
		for i := 0; i < 100_000; i++ {
			switch i % 3 {
			case 0:
				if w, g := want.Float64(), got.Float64(); w != g {
					t.Fatalf("seed %d Float64 draw %d: got %v want %v", seed, i, g, w)
				}
			case 1:
				if w, g := want.Int63(), got.Int63(); w != g {
					t.Fatalf("seed %d Int63 draw %d: got %v want %v", seed, i, g, w)
				}
			case 2:
				if w, g := want.Uint64(), got.Uint64(); w != g {
					t.Fatalf("seed %d Uint64 draw %d: got %v want %v", seed, i, g, w)
				}
			}
		}
	}
}

// TestRandCloneAfterManyDraws: cloning a deeply advanced source (well
// past the 607-word state ring) and continuing through RandOver must
// match the original's future stream, and the copies must be
// independent.
func TestRandCloneAfterManyDraws(t *testing.T) {
	r, src := NewRand(5)
	for i := 0; i < 250_000; i++ {
		r.Float64()
	}
	c := src.Clone()
	rc := RandOver(c)
	if c.Draws() != src.Draws() {
		t.Fatalf("clone draws = %d, want %d", c.Draws(), src.Draws())
	}
	for i := 0; i < 10_000; i++ {
		if w, g := r.Uint64(), rc.Uint64(); w != g {
			t.Fatalf("draw %d after clone: got %v want %v", i, g, w)
		}
	}
	before := src.Draws()
	rc.Float64()
	if src.Draws() != before {
		t.Fatal("advancing the clone moved the original's counter")
	}
}

// TestRandCloneMixedConsumers: a cloned source feeding a stock
// rand.Rand and the original feeding the concrete Rand stay in
// lockstep — the two consumer types are interchangeable views over the
// same stream.
func TestRandCloneMixedConsumers(t *testing.T) {
	r, src := NewRand(11)
	for i := 0; i < 1_000; i++ {
		r.Uint64()
	}
	std := rand.New(src.Clone())
	for i := 0; i < 5_000; i++ {
		if w, g := r.Float64(), std.Float64(); w != g {
			t.Fatalf("draw %d: concrete %v, stdlib-over-clone %v", i, w, g)
		}
	}
}

// TestFloat64Resample forces the probability-2⁻⁵³ branch of Float64:
// an Int63 draw within half an ULP of 2⁶³ makes the division round up
// to exactly 1.0, which the stdlib (and so this package) resamples.
// The state is crafted so the next draw lands in that window and the
// one after is 0.
func TestFloat64Resample(t *testing.T) {
	r, src := NewRand(1)
	for i := range src.vec {
		src.vec[i] = 0
	}
	feed1 := (src.feed - 1 + rngLen) % rngLen
	src.vec[feed1] = 1<<63 - 1 // draw 1: rounds to 1.0, resampled
	before := src.Draws()
	if f := r.Float64(); f != 0 {
		t.Fatalf("Float64 after forced resample = %v, want 0", f)
	}
	if got := src.Draws() - before; got != 2 {
		t.Fatalf("resample consumed %d draws, want 2", got)
	}
}

// BenchmarkFloat64 measures the concrete Rand against a stock rand.Rand
// over the same Source (one more interface hop per draw).
func BenchmarkFloat64(b *testing.B) {
	b.Run("xrand", func(b *testing.B) {
		r, _ := NewRand(1)
		for i := 0; i < b.N; i++ {
			r.Float64()
		}
	})
	b.Run("stdlib-over-source", func(b *testing.B) {
		r, _ := New(1)
		for i := 0; i < b.N; i++ {
			r.Float64()
		}
	})
}
