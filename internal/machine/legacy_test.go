package machine

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"seesaw/internal/workload"
)

// legacyFixtureConfig is the exact config tools/genlegacy used to
// produce testdata/legacy/snapshot_*.bin before CacheKind became a
// string: the snapshots on disk carry the old int enum in their gob
// payload, so decoding them exercises the legacy fallback in
// configwire.go.
func legacyFixtureConfig(t *testing.T, kind CacheKind) Config {
	t.Helper()
	p, err := workload.ByName("redis")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Workload: p, Seed: 42, Refs: 2000, WarmupRefs: 2000,
		CacheKind: kind, L1Size: 32 << 10, FreqGHz: 1.33,
		CPUKind: "ooo", MemBytes: 256 << 20, MemhogFraction: 0.3,
	}
}

// TestLegacySnapshotDecode pins backward compatibility for snapshots
// written before the design registry: blobs whose embedded config
// stores CacheKind as the old int enum must decode to the matching
// design name, keep their warmup signature (so the ladder still
// recognises them), and resume to a working, deterministic machine.
func TestLegacySnapshotDecode(t *testing.T) {
	for _, kind := range []CacheKind{KindSeesaw, KindBaseline, KindPIPT} {
		name := kind.String()
		t.Run(name, func(t *testing.T) {
			blob, err := os.ReadFile(filepath.Join("testdata", "legacy", "snapshot_"+name+".bin"))
			if err != nil {
				t.Fatal(err)
			}
			snap, err := UnmarshalSnapshot(blob)
			if err != nil {
				t.Fatalf("legacy snapshot no longer decodes: %v", err)
			}

			cfg := legacyFixtureConfig(t, kind)
			if got := snap.Resume().Config().CacheKind; got != kind {
				t.Errorf("decoded CacheKind = %q, want %q", got, kind)
			}
			if snap.Ref() != cfg.WarmupRefs {
				t.Errorf("decoded rung = %d, want the warmup boundary %d", snap.Ref(), cfg.WarmupRefs)
			}
			if snap.Signature() != cfg.WarmupSignature() {
				t.Error("decoded warmup signature differs from the fixture config's — " +
					"the ladder would refuse to reuse pre-refactor snapshots")
			}

			// The decoded machine must actually run, and deterministically:
			// two independent resumes of one legacy blob agree byte for byte.
			run := func() []byte {
				m := snap.Resume()
				if err := m.Measure(context.Background()); err != nil {
					t.Fatal(err)
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
			if a, b := run(), run(); !bytes.Equal(a, b) {
				t.Error("two resumes of the legacy snapshot disagree")
			}
		})
	}
}

// TestLegacySnapshotMigratesToV2: each version-1 fixture decodes,
// re-encodes as the current schema and decodes again; resuming the
// version-1 and the re-encoded blob gives byte-identical reports, and
// the re-encoding is a fixed point.
func TestLegacySnapshotMigratesToV2(t *testing.T) {
	for _, kind := range []CacheKind{KindSeesaw, KindBaseline, KindPIPT} {
		name := kind.String()
		t.Run(name, func(t *testing.T) {
			v1, err := os.ReadFile(filepath.Join("testdata", "legacy", "snapshot_"+name+".bin"))
			if err != nil {
				t.Fatal(err)
			}
			if v, err := PeekSnapshotVersion(v1); err != nil || v != snapSchemaV1 {
				t.Fatalf("fixture header: version %d, %v; want %d", v, err, snapSchemaV1)
			}
			old, err := UnmarshalSnapshot(v1)
			if err != nil {
				t.Fatal(err)
			}
			v2, err := old.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if v, err := PeekSnapshotVersion(v2); err != nil || v != SnapshotSchemaVersion {
				t.Fatalf("re-encoded header: version %d, %v; want %d", v, err, SnapshotSchemaVersion)
			}
			migrated, err := UnmarshalSnapshot(v2)
			if err != nil {
				t.Fatalf("re-encoded legacy snapshot does not decode: %v", err)
			}
			again, err := migrated.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(v2, again) {
				t.Error("re-encoding the migrated snapshot changes its bytes")
			}
			want, got := reportText(t, old.Resume()), reportText(t, migrated.Resume())
			if !bytes.Equal(want, got) {
				t.Errorf("resume from the migrated snapshot differs:\nv1:\n%s\nv2:\n%s", want, got)
			}
		})
	}
}
