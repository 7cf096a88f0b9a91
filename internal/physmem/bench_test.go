package physmem

import (
	"math/rand"
	"testing"
)

// The benchmarks below run on 1GB of memory hogged at 0.6, the
// fragmentation a memhog-0.6 cell builds, clones and snapshots. Results
// go to the sinks so the measured calls cannot be optimized away.
var (
	buddySink *Buddy
	hogSink   *Memhog
	stateSink MemhogState
)

func BenchmarkMemhogRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buddySink, hogSink = hogged(b, 1)
	}
}

func BenchmarkMemhogClone(b *testing.B) {
	buddy, h := hogged(b, 1)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hogSink = h.Clone(buddy, rng)
	}
}

func BenchmarkMemhogState(b *testing.B) {
	_, h := hogged(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stateSink = h.State()
	}
}

// BenchmarkMemhogCompact times one 2MB compaction of a freshly hogged
// memory; each iteration compacts its own untimed clone.
func BenchmarkMemhogCompact(b *testing.B) {
	buddy, h := hogged(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cb := buddy.Clone()
		ch := h.Clone(cb, rand.New(rand.NewSource(1)))
		b.StartTimer()
		if !ch.Compact(Order2M) {
			b.Fatal("compaction failed")
		}
	}
}

func BenchmarkBuddyClone(b *testing.B) {
	buddy, _ := hogged(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buddySink = buddy.Clone()
	}
}
