package machine

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seesaw/internal/faults"
	"seesaw/internal/metrics"
	"seesaw/internal/workload"
)

// hookedConfig is testConfig with every hook attached: the codec must
// carry recorder, checker, and injector state, not just the bare
// machine.
func hookedConfig(t *testing.T, kind CacheKind) Config {
	t.Helper()
	cfg := testConfig(t, kind)
	cfg.CheckInvariants = true
	cfg.Metrics = &metrics.Config{EpochRefs: 5_000}
	cfg.Faults = &faults.Config{Schedule: "mix", Every: 6_000}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// encodeDecode round-trips a snapshot through the binary codec.
func encodeDecode(t *testing.T, snap *Snapshot) *Snapshot {
	t.Helper()
	data, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestCodecRoundTripMidEpoch is the differential battery's core case:
// for every registered cache design, with every hook attached, a
// machine is stopped mid-epoch (pre-generated records pending in the
// batch buffer), snapshotted, encoded, decoded, and resumed — and the
// decoded continuation must match the original machine's own
// continuation byte for byte. A direct (unencoded) resume is compared
// too, so a failure distinguishes "clone is wrong" from "codec is
// wrong". This is the codec leg of the zoo conformance battery (see
// zoo_test.go).
func TestCodecRoundTripMidEpoch(t *testing.T) {
	for _, name := range DesignNames() {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			cfg := hookedConfig(t, CacheKind(name))
			m := warmMaster(t, cfg)
			total := cfg.WarmupRefs + cfg.Refs

			// Leave most of a ~4096-reference epoch pending.
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

			if got := reportText(t, snap.Resume()); !bytes.Equal(want.Bytes(), got) {
				t.Errorf("direct resume differs from original continuation:\nwant:\n%s\ngot:\n%s", want.Bytes(), got)
			}
			if got := reportText(t, encodeDecode(t, snap).Resume()); !bytes.Equal(want.Bytes(), got) {
				t.Errorf("decoded resume differs from original continuation:\nwant:\n%s\ngot:\n%s", want.Bytes(), got)
			}
		})
	}
}

// TestCodecDeterministic: encoding the same snapshot twice — and
// encoding its own decode — yields identical bytes. The ladder's
// crash-resume guarantee ("restart produces a byte-identical table")
// leans on the codec never ranging over a map.
func TestCodecDeterministic(t *testing.T) {
	cfg := hookedConfig(t, KindSeesaw)
	m := warmMaster(t, cfg)
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	a, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two encodings of one snapshot differ")
	}
	dec, err := UnmarshalSnapshot(a)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Error("re-encoding a decoded snapshot changes the bytes")
	}
}

// TestCodecMetadata: the header peek, the rung depth, and the signature
// survive the round trip; the prefix hash separates configs by warmup
// identity only.
func TestCodecMetadata(t *testing.T) {
	cfg := testConfig(t, KindSeesaw)
	m := warmMaster(t, cfg)
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if v, err := PeekSnapshotVersion(data); err != nil || v != SnapshotSchemaVersion {
		t.Errorf("PeekSnapshotVersion = %d, %v; want %d, nil", v, err, SnapshotSchemaVersion)
	}
	if snap.Ref() != cfg.WarmupRefs {
		t.Errorf("snapshot rung = %d, want the warmup boundary %d", snap.Ref(), cfg.WarmupRefs)
	}
	dec, err := UnmarshalSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Ref() != snap.Ref() || dec.Signature() != snap.Signature() {
		t.Error("decoded snapshot's rung or signature differs from the encoded one's")
	}

	// Measured-phase parameters must not move the prefix hash; warmup
	// parameters must.
	other := testConfig(t, KindPIPT)
	if cfg.PrefixHash() != other.PrefixHash() {
		t.Error("cache kind changed the prefix hash; it is a measured-phase parameter")
	}
	reseeded := cfg
	reseeded.Seed = 43
	if cfg.PrefixHash() == reseeded.PrefixHash() {
		t.Error("seed did not change the prefix hash")
	}
}

// TestCodecErrors: every class of damaged input maps to its typed
// error, and none of them panic.
func TestCodecErrors(t *testing.T) {
	cfg := testConfig(t, KindBaseline)
	m := warmMaster(t, cfg)
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrSnapshotTruncated},
		{"header only", data[:snapHeaderLen], ErrSnapshotTruncated},
		{"half payload", data[:snapHeaderLen+(len(data)-snapHeaderLen)/2], ErrSnapshotTruncated},
		{"bad magic", append([]byte("NOTASNAP"), data[8:]...), ErrSnapshotCorrupt},
		{"version skew", func() []byte {
			d := append([]byte(nil), data...)
			d[8], d[9] = 0xff, 0xfe
			return d
		}(), ErrSnapshotSchema},
		{"flipped payload byte", func() []byte {
			d := append([]byte(nil), data...)
			d[len(d)/2] ^= 0x40
			return d
		}(), ErrSnapshotCorrupt},
		{"v1 header over a v2 payload", func() []byte {
			d := append([]byte(nil), data...)
			d[8], d[9] = 0, snapSchemaV1
			return d
		}(), ErrSnapshotCorrupt},
		{"flipped checksum", func() []byte {
			d := append([]byte(nil), data...)
			d[20] ^= 0x01
			return d
		}(), ErrSnapshotCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := UnmarshalSnapshot(tc.data); !errors.Is(err, tc.want) {
				t.Errorf("got err %v, want %v", err, tc.want)
			}
		})
	}
}

// TestCodecRejectsCorruptPhysmem: a snapshot whose physical-memory
// state is internally inconsistent decodes to ErrSnapshotCorrupt through
// the allocator's own validation, not through a recovered panic.
func TestCodecRejectsCorruptPhysmem(t *testing.T) {
	snap, err := warmMaster(t, testConfig(t, KindBaseline)).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		corrupt func(st *snapshotState)
	}{
		{"free head beyond memory", func(st *snapshotState) {
			st.Buddy.FreeFrames[len(st.Buddy.FreeFrames)-1] = st.Buddy.TotalFrames
		}},
		{"misaligned free head", func(st *snapshotState) {
			for i, o := range st.Buddy.FreeOrders {
				if o > 0 {
					st.Buddy.FreeFrames[i]++
					return
				}
			}
		}},
		{"overlapping free blocks", func(st *snapshotState) {
			st.Buddy.FreeFrames[1] = st.Buddy.FreeFrames[0]
		}},
		{"free count", func(st *snapshotState) { st.Buddy.FreeCount++ }},
		{"hog frame beyond memory", func(st *snapshotState) { st.Hog.Frames[0] = st.Buddy.TotalFrames }},
		{"duplicate hog frame", func(st *snapshotState) { st.Hog.Frames[1] = st.Hog.Frames[0] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { rejectsState(t, snap, tc.corrupt) })
	}

	// A restore builds only the config's skeleton, so what Build's
	// populate step used to guarantee is checked explicitly: memory
	// size, memhog presence, the set of address spaces, and generator
	// regions that name mapped chunks of their process. The co-runner
	// and text-region cases need a config that has them.
	cfg := testConfig(t, KindBaseline)
	co, err := workload.ByName("astar")
	if err != nil {
		t.Fatal(err)
	}
	cfg.CoRunner, cfg.ICache = &co, true
	full, err := warmMaster(t, cfg).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restore := []struct {
		name    string
		from    *Snapshot
		corrupt func(st *snapshotState)
	}{
		{"config memory larger than the state's", snap, func(st *snapshotState) { st.Cfg.MemBytes *= 2 }},
		{"buddy sized for other memory", snap, func(st *snapshotState) { st.Buddy.TotalFrames /= 2 }},
		{"memhog state missing", snap, func(st *snapshotState) { st.Hog = nil }},
		{"memhog state without a memhog", snap, func(st *snapshotState) { st.Cfg.MemhogFraction = 0 }},
		{"no address spaces", snap, func(st *snapshotState) { st.Mgr.Procs = nil }},
		{"co-runner address space without a co-runner", snap, func(st *snapshotState) {
			co := st.Mgr.Procs[0]
			co.ASID = coASID
			st.Mgr.Procs = append(st.Mgr.Procs, co)
		}},
		{"unknown ASID", snap, func(st *snapshotState) { st.Mgr.Procs[0].ASID = 7 }},
		{"unbound generator", snap, func(st *snapshotState) { st.Gen.Bound = false }},
		{"heap base not a chunk", snap, func(st *snapshotState) { st.Gen.HeapBase += 4096 }},
		{"OS base unmapped", snap, func(st *snapshotState) { st.Gen.OSBase = 0 }},
		{"text region without an I-cache", snap, func(st *snapshotState) { st.Gen.CodeBound = true }},
		{"co-runner address space missing", full, func(st *snapshotState) { st.Mgr.Procs = st.Mgr.Procs[:1] }},
		{"co-runner region not a chunk", full, func(st *snapshotState) { st.CoGens[1].SmallBase += 4096 }},
		{"text base not a chunk", full, func(st *snapshotState) { st.Gen.CodeBase += 4096 }},
		{"I-cache without a text region", full, func(st *snapshotState) { st.Gen.CodeBound = false }},
	}
	for _, tc := range restore {
		t.Run(tc.name, func(t *testing.T) { rejectsState(t, tc.from, tc.corrupt) })
	}
}

// rejectsState encodes snap's state damaged by corrupt and requires the
// decoder to reject it as corrupt through validation, not through a
// recovered panic.
func rejectsState(t *testing.T, snap *Snapshot, corrupt func(st *snapshotState)) {
	t.Helper()
	st, err := snap.m.captureState()
	if err != nil {
		t.Fatal(err)
	}
	corrupt(st)
	data, err := encodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	_, err = UnmarshalSnapshot(data)
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("got err %v, want %v", err, ErrSnapshotCorrupt)
	}
	if strings.Contains(err.Error(), "panic") {
		t.Errorf("rejected only by a recovered panic: %v", err)
	}
}

// TestWarmupTo: climbing the warmup in chunks lands on the same state
// as one uninterrupted warmup — the resumed-from-rung continuation is
// byte-identical to the cold run — and the boundary/ordering rules
// hold.
func TestWarmupTo(t *testing.T) {
	ctx := context.Background()
	cfg := testConfig(t, KindSeesaw)
	cold, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := reportText(t, cold)

	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rung := range []int{5_000, 12_000, cfg.WarmupRefs} {
		if err := m.WarmupTo(ctx, rung); err != nil {
			t.Fatal(err)
		}
		if m.Ref() != rung {
			t.Fatalf("after WarmupTo(%d), Ref() = %d", rung, m.Ref())
		}
		// Round-trip the mid-warmup machine through the codec and keep
		// climbing on the decoded copy — exactly the ladder's resume path.
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		m = encodeDecode(t, snap).Resume()
		if m.Ref() != rung {
			t.Fatalf("decoded rung sits at %d, want %d", m.Ref(), rung)
		}
	}
	if err := m.WarmupTo(ctx, 5_000); err != nil {
		t.Errorf("WarmupTo below the cursor should be a no-op, got %v", err)
	}
	if err := m.WarmupTo(ctx, cfg.WarmupRefs+1); err == nil {
		t.Error("WarmupTo past the warmup boundary did not fail")
	}
	if err := m.Measure(ctx); err != nil {
		t.Fatal(err)
	}
	r, err := m.Report()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := r.WriteText(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		t.Errorf("ladder-climbed run differs from cold run:\ncold:\n%s\nladdered:\n%s", want, got.Bytes())
	}
}

// codecSeeds returns genuine version-2 encodings: a warmup-boundary
// snapshot (cold caches, so every cache array is omitted), one taken
// mid-way through the measured phase (warm caches, arrays present), and
// warmup-boundary snapshots of a co-runner config, a 1GB-heap config
// and an I-cache config, whose restores bind a second address space,
// map 1GB chunks and bind a text region.
func codecSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	profile := func(name string) workload.Profile {
		p, err := workload.ByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		return p
	}
	base := Config{
		Workload:   profile("redis"),
		Seed:       7,
		Refs:       400,
		WarmupRefs: 300,
		CacheKind:  KindSeesaw,
		L1Size:     32 << 10,
		FreqGHz:    1.33,
		CPUKind:    "inorder",
		MemBytes:   512 << 20,
	}
	warm := func(cfg Config) *Machine {
		if err := cfg.Validate(); err != nil {
			tb.Fatal(err)
		}
		m, err := Build(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		if err := m.Warmup(context.Background()); err != nil {
			tb.Fatal(err)
		}
		return m
	}
	encode := func(m *Machine) []byte {
		data, err := m.MarshalSnapshot()
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}

	m := warm(base)
	if cold, err := m.captureState(); err != nil || cold.Coh.LLC.States != nil || cold.L1s[0].Cache.States != nil {
		tb.Fatalf("the warmup-boundary seed has warm caches (%v)", err)
	}
	seeds := [][]byte{encode(m)}
	if err := m.stepBatch(150, base.WarmupRefs, base.WarmupRefs+base.Refs); err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, encode(m))
	if mid, err := m.captureState(); err != nil || mid.Coh.LLC.States == nil || mid.L1s[0].Cache.States == nil {
		tb.Fatalf("the measured-phase seed carries no warm cache image (%v)", err)
	}

	co := base
	corunner := profile("astar")
	co.CoRunner = &corunner
	huge := base
	huge.Heap1G, huge.MemBytes = true, 2<<30
	text := base
	text.ICache = true
	for _, cfg := range []Config{co, huge, text} {
		m := warm(cfg)
		st, err := m.captureState()
		if err != nil {
			tb.Fatal(err)
		}
		if (len(st.Mgr.Procs) == 2) != (cfg.CoRunner != nil) ||
			cfg.Heap1G != (len(st.Mgr.Procs[0].Chunks1G) > 0) || cfg.ICache != st.Gen.CodeBound {
			tb.Fatalf("seed state lacks what its config asks for: %d address spaces, %d 1GB chunks, text bound %v",
				len(st.Mgr.Procs), len(st.Mgr.Procs[0].Chunks1G), st.Gen.CodeBound)
		}
		seeds = append(seeds, encode(m))
	}
	return seeds
}

// TestCodecReencodeIdentity: decoding a genuine version-2 snapshot and
// encoding the result reproduces the input byte for byte, for every
// seed the fuzzer starts from. A restore that dropped or rebuilt state
// differently from what was captured would change the bytes.
func TestCodecReencodeIdentity(t *testing.T) {
	for i, data := range codecSeeds(t) {
		m, err := UnmarshalMachine(data)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		again, err := m.MarshalSnapshot()
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if !bytes.Equal(data, again) {
			t.Errorf("seed %d: re-encoding its decode changes the bytes", i)
		}
	}
}

// TestCodecDecodesLookaheadEpoch: snapshots written while epoch
// generation ran one epoch ahead of execution can carry that epoch in
// BatchNext beside a partly consumed BatchCur. Such a snapshot must
// decode and continue byte-identically to an uninterrupted run, and a
// BatchNext that does not continue BatchCur must still be rejected.
func TestCodecDecodesLookaheadEpoch(t *testing.T) {
	cfg := testConfig(t, KindSeesaw)
	cfg.ICache = true
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cold, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := reportText(t, cold)

	m := warmMaster(t, cfg)
	total := cfg.WarmupRefs + cfg.Refs
	if err := m.stepBatch(100, cfg.WarmupRefs, total); err != nil {
		t.Fatal(err)
	}
	// Draw the following epoch as the lookahead did: the generator moves
	// past it before any of it executes.
	var next epochBuf
	nstart := m.batch.cur.start + len(m.batch.cur.recs)
	m.pregen(&next, nstart, m.epochLen(nstart, cfg.WarmupRefs, total), true)
	withNext := func(st *snapshotState) { st.BatchNext = epochStateOf(next) }

	st, err := m.captureState()
	if err != nil {
		t.Fatal(err)
	}
	withNext(st)
	if len(st.BatchCur.Recs) == 0 || len(st.BatchNext.Recs) == 0 {
		t.Fatalf("want both epochs pending, have %d current and %d lookahead records",
			len(st.BatchCur.Recs), len(st.BatchNext.Recs))
	}
	data, err := encodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := UnmarshalMachine(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportText(t, dec); !bytes.Equal(want, got) {
		t.Errorf("decoded lookahead snapshot differs from the uninterrupted run:\nwant:\n%s\ngot:\n%s", want, got)
	}

	rejectsState(t, &Snapshot{m: m}, func(st *snapshotState) {
		withNext(st)
		st.BatchNext.Start++
	})
}

// FuzzSnapshotCodec throws arbitrary and systematically damaged bytes
// at the decoder: it must never panic, must return one of the typed
// errors on anything it rejects, and anything it accepts must actually
// run. Seeded with genuine encoded snapshots (codecSeeds) so mutations
// explore the interesting region around valid input, and with the
// version-1 fixtures, so the flate decode path is fuzzed too.
func FuzzSnapshotCodec(f *testing.F) {
	seeds := codecSeeds(f)
	for _, s := range seeds {
		f.Add(s)
	}
	valid := seeds[0]
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{})
	f.Add(snapMagic[:])
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/3] ^= 0x80
	f.Add(corrupt)
	for _, kind := range []CacheKind{KindSeesaw, KindBaseline, KindPIPT} {
		v1, err := os.ReadFile(filepath.Join("testdata", "legacy", "snapshot_"+kind.String()+".bin"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(v1)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrSnapshotTruncated) && !errors.Is(err, ErrSnapshotCorrupt) &&
				!errors.Is(err, ErrSnapshotSchema) {
				t.Fatalf("decoder returned an untyped error: %v", err)
			}
			return
		}
		// Accepted input must yield a machine that can run a few
		// references and re-encode without failing.
		re := s.Resume()
		total := re.Config().WarmupRefs + re.Config().Refs
		for i := 0; i < 50 && re.Ref() < total; i++ {
			if err := re.Step(); err != nil {
				t.Fatalf("decoded machine failed to step: %v", err)
			}
		}
		if _, err := s.MarshalBinary(); err != nil {
			t.Fatalf("decoded snapshot failed to re-encode: %v", err)
		}
	})
}
