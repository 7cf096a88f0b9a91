package machine

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"strings"
	"testing"

	"seesaw/internal/workload"
)

// stepToEnd drives a machine to the end of its measured phase one
// Step() at a time — the fully serial path, no epoch batching beyond
// whatever pending records already exist.
func stepToEnd(t *testing.T, m *Machine) []byte {
	t.Helper()
	total := m.Config().WarmupRefs + m.Config().Refs
	for m.globalRef < total {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	r, err := m.Report()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBatchedMatchesStepped pins the core batching contract: the
// epoch-batched Warmup/Measure loop produces a byte-identical report to
// driving the same machine one Step() at a time. Generation never reads
// execution state and execution stays in schedule order, so batching
// must be observationally invisible. The threaded case draws five
// threads' data and instruction records per epoch.
func TestBatchedMatchesStepped(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"seesaw", testConfig(t, KindSeesaw)},
		{"threaded-icache", threadedConfig(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batched, err := Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := reportText(t, batched)

			stepped, err := Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := stepToEnd(t, stepped)
			if !bytes.Equal(want, got) {
				t.Errorf("batched run differs from stepped run:\nbatched:\n%s\nstepped:\n%s", want, got)
			}
		})
	}
}

// threadedConfig is a 4-thread workload with the I-cache modeled, so
// each epoch interleaves five generator threads (4 app threads + the
// system thread), each drawing data and instruction streams.
func threadedConfig(t *testing.T) Config {
	t.Helper()
	p, err := workload.ByName("nutch")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workload:   p,
		Seed:       42,
		Refs:       30_000,
		WarmupRefs: 15_000,
		CacheKind:  KindSeesaw,
		L1Size:     32 << 10,
		FreqGHz:    1.33,
		CPUKind:    "ooo",
		MemBytes:   512 << 20,
		ICache:     true,
		TextHuge:   true,

		MemhogFraction:   0.4,
		PromoteScanEvery: 7_000,
		SplinterEvery:    9_000,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestSnapshotMidEpochPending snapshots a machine in the middle of an
// epoch — pre-generated records pending in the batch buffer, the
// generator already advanced past them — and requires the resumed copy
// to continue byte-identically. This is the hazard epochBuf.clone
// guards: dropping pending records would desync the clone's stream.
func TestSnapshotMidEpochPending(t *testing.T) {
	ctx := context.Background()
	cfg := testConfig(t, KindSeesaw)
	m := warmMaster(t, cfg)
	total := cfg.WarmupRefs + cfg.Refs

	// Execute 100 references of a ~4096-reference epoch, leaving the
	// rest pending.
	if err := m.stepBatch(100, cfg.WarmupRefs, total); err != nil {
		t.Fatal(err)
	}
	if m.batch.cur.empty() {
		t.Fatal("expected pending pre-generated records mid-epoch")
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// The original continues to completion through the batched loop.
	if err := m.Measure(ctx); err != nil {
		t.Fatal(err)
	}
	r, err := m.Report()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := r.WriteText(&want); err != nil {
		t.Fatal(err)
	}

	// One resume continues batched, another drains serially via Step —
	// both must match the original continuation exactly.
	if got := reportText(t, snap.Resume()); !bytes.Equal(want.Bytes(), got) {
		t.Errorf("batched resume differs from original continuation:\nwant:\n%s\ngot:\n%s", want.Bytes(), got)
	}
	if got := stepToEnd(t, snap.Resume()); !bytes.Equal(want.Bytes(), got) {
		t.Errorf("stepped resume differs from original continuation:\nwant:\n%s\ngot:\n%s", want.Bytes(), got)
	}
}

// TestMeasuredStepAllocFree is the allocation regression gate: with
// every hook disabled, a measured-phase reference allocates nothing, on
// every registered design and both CPU models. The machine is warmed
// past its cold-start fills first so map growth and lazily sized
// scratch buffers have reached steady state.
func TestMeasuredStepAllocFree(t *testing.T) {
	p, err := workload.ByName("redis")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range DesignNames() {
		for _, cpuKind := range []string{"ooo", "inorder"} {
			t.Run(kind+"/"+cpuKind, func(t *testing.T) {
				cfg := Config{
					Workload:   p,
					Seed:       42,
					Refs:       60_000,
					WarmupRefs: 10_000,
					CacheKind:  CacheKind(kind),
					L1Size:     32 << 10,
					FreqGHz:    1.33,
					CPUKind:    cpuKind,
					MemBytes:   512 << 20,

					// Cadenced OS activity off (negative disables; zero
					// would take the default): promotion scans and
					// splinters legitimately allocate page-table state,
					// which is not what this test gates.
					ContextSwitchEvery: -1,
					PromoteScanEvery:   -1,
					SplinterEvery:      -1,
				}
				if err := cfg.Validate(); err != nil {
					t.Fatal(err)
				}
				m, err := Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Warmup(context.Background()); err != nil {
					t.Fatal(err)
				}
				// Warm the measured-phase state: caches, TLBs, coherence
				// directory.
				for i := 0; i < 20_000; i++ {
					if err := m.Step(); err != nil {
						t.Fatal(err)
					}
				}
				// Count every allocation rather than a floored per-run
				// average, so one confined to a path a fraction of
				// references take (base pages, misses) still fails.
				var stepErr error
				n := stepAllocs(func() {
					for i := 0; i < 5_000 && stepErr == nil; i++ {
						stepErr = m.Step()
					}
				})
				if stepErr != nil {
					t.Fatal(stepErr)
				}
				if n != 0 {
					t.Errorf("5000 measured Steps allocate %d objects with hooks disabled, want 0", n)
				}
			})
		}
	}
}

// stepAllocs returns how many heap objects the simulator allocates
// while fn runs. Every allocation is sampled and attributed by stack;
// one counts when a frame on its stack is in this module. A raw
// MemStats.Mallocs delta also counts what the runtime's own goroutines
// allocate meanwhile (the scavenger re-arming its timer, for one), at
// moments unrelated to fn, and so flakes. The one allocation sampling
// cannot see is a sub-16-byte pointer-free object packed into a
// tiny-allocator block opened earlier; a recurring one still opens
// fresh blocks and is counted.
func stepAllocs(fn func()) int64 {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	n, _ := runtime.MemProfile(nil, true)
	before := make([]runtime.MemProfileRecord, n+4096)
	after := make([]runtime.MemProfileRecord, n+4096)
	// The heap profile is published as of a completed cycle and may lag
	// by one, so two cycles settle it before each snapshot.
	runtime.GC()
	runtime.GC()
	nb, okb := runtime.MemProfile(before, true)
	fn()
	runtime.GC()
	runtime.GC()
	na, oka := runtime.MemProfile(after, true)
	if !okb || !oka {
		panic("stepAllocs: heap profile outgrew its buffer")
	}
	// Records are per stack and object size, so sum each stack's.
	delta := make(map[[32]uintptr]int64, na)
	for _, r := range before[:nb] {
		delta[r.Stack0] -= r.AllocObjects
	}
	for _, r := range after[:na] {
		delta[r.Stack0] += r.AllocObjects
	}
	var total int64
	for stk, d := range delta {
		if d > 0 && inModule(stk[:]) {
			total += d
		}
	}
	return total
}

// inModule reports whether any frame of a zero-padded profile stack is
// in this module.
func inModule(stack []uintptr) bool {
	if i := slices.Index(stack, 0); i >= 0 {
		stack = stack[:i]
	}
	frames := runtime.CallersFrames(stack)
	for {
		f, more := frames.Next()
		if strings.HasPrefix(f.Function, "seesaw/") {
			return true
		}
		if !more {
			return false
		}
	}
}

var allocSink *[8]int64

// TestStepAllocsAttribution is stepAllocs' positive control: objects fn
// allocates itself are counted exactly, and a no-op counts zero.
func TestStepAllocsAttribution(t *testing.T) {
	if n := stepAllocs(func() {}); n != 0 {
		t.Errorf("no-op allocates %d objects, want 0", n)
	}
	n := stepAllocs(func() {
		for i := 0; i < 3; i++ {
			allocSink = new([8]int64)
		}
	})
	allocSink = nil
	if n != 3 {
		t.Errorf("three fresh 64-byte arrays count as %d objects, want 3", n)
	}
}
