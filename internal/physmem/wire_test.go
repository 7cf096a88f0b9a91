package physmem

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"math/rand"
	"testing"
)

// hogged returns 1GB of physical memory fragmented the way a memhog-0.6
// cell fragments it: 60% pinned in scattered 4KB pages, 97% touched.
func hogged(tb testing.TB, seed int64) (*Buddy, *Memhog) {
	tb.Helper()
	b := MustNew(1 << 30)
	h, err := Run(b, rand.New(rand.NewSource(seed)), 0.6, 0.97)
	if err != nil {
		tb.Fatal(err)
	}
	return b, h
}

// gobDigest hashes the gob encoding of v, the encoding snapshots use.
func gobDigest(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// wireScenario drives a fixed mix of compactions, allocations, frees and
// targeted allocations over a hogged 1GB memory, leaving stale heap
// entries, split blocks and migrated hog pages behind.
func wireScenario(t *testing.T) (*Buddy, *Memhog) {
	t.Helper()
	b, h := hogged(t, 2018)
	for i := 0; i < 4; i++ {
		if !h.Compact(Order2M) {
			t.Fatalf("compaction %d failed", i)
		}
	}
	big, ok := b.AllocOrder(Order2M)
	if !ok {
		t.Fatal("2MB allocation failed")
	}
	var small []uint64
	for i := 0; i < 3; i++ {
		f, ok := b.AllocOrder(Order4K)
		if !ok {
			t.Fatal("4KB allocation failed")
		}
		small = append(small, f)
	}
	if err := b.FreeOrder(small[1], Order4K); err != nil {
		t.Fatal(err)
	}
	if err := b.FreeOrder(big, Order2M); err != nil {
		t.Fatal(err)
	}
	if err := b.AllocFrameAt(big+7, Order4K); err != nil {
		t.Fatal(err)
	}
	if err := b.AllocFrameAt(big+64, 3); err != nil {
		t.Fatal(err)
	}
	h.Touch(1000)
	for i := 0; i < 2; i++ {
		if !h.Compact(Order2M) {
			t.Fatalf("late compaction %d failed", i)
		}
	}
	return b, h
}

// TestSnapshotWireFormatPinned pins the gob bytes of BuddyState and
// MemhogState after a fixed scenario. The snapshot schema was bumped to
// version 2 when the states dropped the buddy's heaps (FreeLists) and
// the memhog's repeated index (PinnedFrames/PinnedIdx); these digests
// were recorded for version 2 on purpose, and cross-checked by encoding
// the version-1 allocator's remaining fields under the version-2 struct
// shapes after the same scenario, which gave the same digests. A change
// to either digest changes what snapshots written by earlier versions
// decode to, and needs a SnapshotSchemaVersion bump.
func TestSnapshotWireFormatPinned(t *testing.T) {
	b, h := wireScenario(t)
	const (
		wantBuddy = "18227d14119274408ea65f688033108c68929c2f3da1cf329008db6cca8f3e3f"
		wantHog   = "a4247302a0f332c403d901bbdd5198e1e61ca02bf81c710134e15c8110288a6b"
	)
	if got := gobDigest(t, b.State()); got != wantBuddy {
		t.Errorf("BuddyState digest %s, want %s", got, wantBuddy)
	}
	if got := gobDigest(t, h.State()); got != wantHog {
		t.Errorf("MemhogState digest %s, want %s", got, wantHog)
	}
}

// TestFrameHeapMatchesStdlibSift pins frameHeap to the standard
// library's heap.Push/heap.Pop sift order on a push-heavy sequence over
// a few dozen values, so equal siblings are common. The digest covers
// every popped frame and the final backing slice; it was recorded by
// running the same sequence through the standard library's heap package.
func TestFrameHeapMatchesStdlibSift(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var h frameHeap
	sum := sha256.New()
	var buf [8]byte
	for i := 0; i < 20000; i++ {
		if len(h) == 0 || rng.Intn(3) != 0 {
			h.push(uint64(rng.Intn(48)))
		} else {
			binary.LittleEndian.PutUint64(buf[:], h.pop())
			sum.Write(buf[:])
		}
	}
	for _, f := range h {
		binary.LittleEndian.PutUint64(buf[:], f)
		sum.Write(buf[:])
	}
	const want = "8285b3657847b690735d371f85a6f1ab9ff38c101cb6d8c57711a2c8d3578dd8"
	if got := hex.EncodeToString(sum.Sum(nil)); got != want {
		t.Errorf("heap digest %s, want %s", got, want)
	}
}
