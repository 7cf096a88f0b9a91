package xrand

import (
	"math/rand"
	"testing"
)

// TestSourceStateRoundTrip: a source repositioned from a captured state
// emits exactly the stream the original emits from the same point, for
// both a fresh source and one parked at an unrelated position.
func TestSourceStateRoundTrip(t *testing.T) {
	orig := NewSource(42)
	r := rand.New(orig)
	for i := 0; i < 137; i++ {
		r.Intn(100) // rejection sampling burns a variable number of draws
		r.Float64()
	}
	st := orig.State()
	if st.Seed != 42 || st.Draws != orig.Draws() {
		t.Fatalf("State() = %+v, want seed 42 at %d draws", st, orig.Draws())
	}

	// Restore onto a source at a completely different position and seed.
	resumed := NewSource(7)
	rand.New(resumed).Uint64()
	if err := resumed.SetState(st); err != nil {
		t.Fatal(err)
	}
	if resumed.Draws() != st.Draws {
		t.Errorf("resumed Draws() = %d, want %d", resumed.Draws(), st.Draws)
	}
	for i := 0; i < 64; i++ {
		if a, b := orig.Uint64(), resumed.Uint64(); a != b {
			t.Fatalf("stream diverged at post-restore draw %d: %#x vs %#x", i, a, b)
		}
	}
}

// TestSourceStateRandWiring: SetState mutates the source in place, so a
// rand.Rand wrapped around it before the restore keeps working and
// matches the original's wrapped stream.
func TestSourceStateRandWiring(t *testing.T) {
	orig := NewSource(9)
	rand.New(orig).Shuffle(50, func(i, j int) {})

	resumed := NewSource(1)
	wrapped := rand.New(resumed) // wired before the restore
	if err := resumed.SetState(orig.State()); err != nil {
		t.Fatal(err)
	}
	want := rand.New(orig.Clone())
	for i := 0; i < 32; i++ {
		if a, b := want.Int63(), wrapped.Int63(); a != b {
			t.Fatalf("pre-wired rand diverged at draw %d", i)
		}
	}
}

// TestSourceStateWithoutMirror: at every stop, SetState moves a source
// parked at an unrelated seed and position onto the stop, where it
// continues with the stock stream and reports the captured state. No
// source carries a copy of math/rand's internal state any more; the
// restore rebuilds the generator from the seed alone.
func TestSourceStateWithoutMirror(t *testing.T) {
	for _, seed := range streamSeeds {
		want := stdStream(seed, streamCounts[len(streamCounts)-1]+streamTail)
		src := NewSource(seed)
		at := 0
		for _, stop := range streamCounts {
			for ; at < stop; at++ {
				src.Uint64()
			}
			st := src.State()
			if st != (SourceState{Seed: seed, Draws: uint64(stop)}) {
				t.Fatalf("seed %d at %d: State() = %+v", seed, stop, st)
			}
			twin := NewSource(seed + 1)
			twin.Uint64()
			if err := twin.SetState(st); err != nil {
				t.Fatal(err)
			}
			if twin.State() != st {
				t.Fatalf("seed %d at %d: restored State() = %+v, want %+v", seed, stop, twin.State(), st)
			}
			for k := 0; k < streamTail; k++ {
				if g, w := twin.Uint64(), want[stop+k]; g != w {
					t.Fatalf("seed %d at %d: restored draw %d = %#x, want %#x", seed, stop, k, g, w)
				}
			}
		}
	}
}

// TestSourceStateMirrorDisabled: SetState reseeds and replays, so it
// also rewinds — a source already past a stop lands back on it — and
// Seed restarts the stream from its first draw.
func TestSourceStateMirrorDisabled(t *testing.T) {
	for _, seed := range streamSeeds {
		want := stdStream(seed, streamCounts[len(streamCounts)-1]+streamTail)
		src := NewSource(seed)
		for range want {
			src.Uint64()
		}
		for _, stop := range streamCounts {
			if err := src.SetState(SourceState{Seed: seed, Draws: uint64(stop)}); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < streamTail; k++ {
				if g, w := src.Uint64(), want[stop+k]; g != w {
					t.Fatalf("seed %d rewound to %d: draw %d = %#x, want %#x", seed, stop, k, g, w)
				}
			}
		}
		src.Seed(seed)
		if src.Draws() != 0 {
			t.Fatalf("seed %d: Draws after Seed = %d, want 0", seed, src.Draws())
		}
		for k := 0; k < streamTail; k++ {
			if g := src.Uint64(); g != want[k] {
				t.Fatalf("seed %d: draw %d after Seed = %#x, want %#x", seed, k, g, want[k])
			}
		}
	}
}

// TestSourceStateReplayBound: a draw count past the replay bound is a
// corrupt state and must be rejected, leaving the source untouched.
func TestSourceStateReplayBound(t *testing.T) {
	s := NewSource(3)
	s.Uint64()
	before := s.State()
	if err := s.SetState(SourceState{Seed: 3, Draws: maxReplayDraws + 1}); err == nil {
		t.Fatal("SetState accepted a draw count past the replay bound")
	}
	if got := s.State(); got != before {
		t.Errorf("failed SetState mutated the source: %+v, want %+v", got, before)
	}
}
