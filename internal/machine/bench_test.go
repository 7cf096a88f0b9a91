package machine

import (
	"context"
	"testing"

	"seesaw/internal/workload"
)

// Sinks keep the benchmarked calls from being optimized away.
var (
	forkSink  *Machine
	bytesSink []byte
	snapSink  *Snapshot
)

// memhogMaster builds and warms a memhog-0.6 master over 1GB of memory,
// the machine a fragmentation sweep shares across its design points.
func memhogMaster(b *testing.B) (*Machine, Config) {
	b.Helper()
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
	return m, cfg
}

// BenchmarkForkMemhog forks a warmed memhog-0.6 master over 1GB of
// memory: the per-cell cost a fragmentation sweep pays for every design
// point sharing one warmup.
func BenchmarkForkMemhog(b *testing.B) {
	m, cfg := memhogMaster(b)
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

// memhogRung encodes the warmed memhog-0.6 master: a ladder rung as the
// store holds it.
func memhogRung(b *testing.B) (*Snapshot, []byte) {
	b.Helper()
	m, _ := memhogMaster(b)
	snap, err := m.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	data, err := snap.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	return snap, data
}

// BenchmarkSnapshotMarshal encodes a warmed memhog-0.6 rung, the codec
// cost a ladder pays for every rung it stores; encoded_KB is the rung's
// size.
func BenchmarkSnapshotMarshal(b *testing.B) {
	snap, data := memhogRung(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := snap.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		bytesSink = out
	}
	b.ReportMetric(float64(len(data))/1024, "encoded_KB")
}

// BenchmarkSnapshotUnmarshal decodes a warmed memhog-0.6 rung: the
// embedded config's skeleton plus every component's restored state,
// the cost of every resume from the ladder.
func BenchmarkSnapshotUnmarshal(b *testing.B) {
	_, data := memhogRung(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := UnmarshalSnapshot(data)
		if err != nil {
			b.Fatal(err)
		}
		snapSink = s
	}
	b.ReportMetric(float64(len(data))/1024, "encoded_KB")
}

// BenchmarkLadderResume is one laddered cell of a fragmentation sweep
// that resumes from the store: decode the memhog-0.6 boundary rung
// straight into a master, fork the cell from it, and measure 20k
// references.
func BenchmarkLadderResume(b *testing.B) {
	m, cfg := memhogMaster(b)
	data, err := m.MarshalSnapshot()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		master, err := UnmarshalMachine(data)
		if err != nil {
			b.Fatal(err)
		}
		f, err := master.Fork(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Measure(ctx); err != nil {
			b.Fatal(err)
		}
		forkSink = f
	}
}
