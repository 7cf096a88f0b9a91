package machine

import (
	"context"
	"testing"

	"seesaw/internal/workload"
)

// forkSink keeps the benchmarked Fork from being optimized away.
var forkSink *Machine

// BenchmarkForkMemhog forks a warmed memhog-0.6 master over 1GB of
// memory: the per-cell cost a fragmentation sweep pays for every design
// point sharing one warmup.
func BenchmarkForkMemhog(b *testing.B) {
	p, err := workload.ByName("redis")
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Workload: p, Seed: 42, Refs: 20_000, WarmupRefs: 20_000,
		CacheKind: KindSeesaw, L1Size: 64 << 10,
		FreqGHz: 1.33, CPUKind: "ooo", MemBytes: 1 << 30,
		MemhogFraction: 0.6,
	}
	m, err := Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Warmup(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := m.Fork(cfg)
		if err != nil {
			b.Fatal(err)
		}
		forkSink = f
	}
}
