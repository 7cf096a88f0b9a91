package xrand

import (
	"math/rand"
	"testing"
)

// TestStreamMatchesStockSource: wrapping must not change the stream —
// every rand.Rand method used by the simulator produces exactly the
// values the stock source would.
func TestStreamMatchesStockSource(t *testing.T) {
	for _, seed := range append([]int64{42}, streamSeeds...) {
		want := rand.New(rand.NewSource(seed))
		got, _ := New(seed)
		for i := 0; i < 1000; i++ {
			switch i % 5 {
			case 0:
				if w, g := want.Float64(), got.Float64(); w != g {
					t.Fatalf("seed %d Float64 draw %d: got %v want %v", seed, i, g, w)
				}
			case 1:
				if w, g := want.Uint64(), got.Uint64(); w != g {
					t.Fatalf("seed %d Uint64 draw %d: got %v want %v", seed, i, g, w)
				}
			case 2:
				if w, g := want.Intn(97), got.Intn(97); w != g {
					t.Fatalf("seed %d Intn draw %d: got %v want %v", seed, i, g, w)
				}
			case 3:
				if w, g := want.Int63(), got.Int63(); w != g {
					t.Fatalf("seed %d Int63 draw %d: got %v want %v", seed, i, g, w)
				}
			case 4:
				wp, gp := make([]int, 9), make([]int, 9)
				for j := range wp {
					wp[j], gp[j] = j, j
				}
				want.Shuffle(9, func(a, b int) { wp[a], wp[b] = wp[b], wp[a] })
				got.Shuffle(9, func(a, b int) { gp[a], gp[b] = gp[b], gp[a] })
				for j := range wp {
					if wp[j] != gp[j] {
						t.Fatalf("seed %d Shuffle draw %d diverged", seed, i)
					}
				}
			}
		}
	}
}

// TestCloneContinuesStream: after an arbitrary mix of draws, a clone
// produces the same future stream as the original, and the two are
// independent.
func TestCloneContinuesStream(t *testing.T) {
	r, src := New(7)
	for i := 0; i < 137; i++ {
		switch i % 3 {
		case 0:
			r.Float64()
		case 1:
			r.Intn(1000) // rejection sampling: draw count != call count
		case 2:
			r.Uint64()
		}
	}
	c := src.Clone()
	rc := rand.New(c)
	if c.Draws() != src.Draws() {
		t.Fatalf("clone draws = %d, want %d", c.Draws(), src.Draws())
	}
	for i := 0; i < 200; i++ {
		if w, g := r.Uint64(), rc.Uint64(); w != g {
			t.Fatalf("draw %d after clone: got %v want %v", i, g, w)
		}
	}
	// Independence: advancing the clone must not move the original.
	before := src.Draws()
	rc.Uint64()
	if src.Draws() != before {
		t.Fatalf("advancing the clone moved the original's counter")
	}
}

// TestSeedResets: Seed restarts the stream and the counter.
func TestSeedResets(t *testing.T) {
	r, src := New(3)
	r.Uint64()
	r.Uint64()
	src.Seed(3)
	if src.Draws() != 0 {
		t.Fatalf("Draws after Seed = %d, want 0", src.Draws())
	}
	fresh := rand.New(rand.NewSource(3))
	if w, g := fresh.Uint64(), r.Uint64(); w != g {
		t.Fatalf("post-Seed stream diverged: got %v want %v", g, w)
	}
}
