package physmem

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"seesaw/internal/addr"
)

// fragmented builds a buddy with non-trivial free-list structure: a mix
// of allocations and frees that forces splits and leaves holes.
func fragmented(t *testing.T) *Buddy {
	t.Helper()
	b, err := New(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	var frames []addr.PAddr
	for i := 0; i < 40; i++ {
		pa, ok := b.Alloc(addr.Page4K)
		if !ok {
			t.Fatal("allocation failed")
		}
		frames = append(frames, pa)
	}
	if _, ok := b.Alloc(addr.Page2M); !ok {
		t.Fatal("2MB allocation failed")
	}
	for i := 0; i < len(frames); i += 3 {
		b.Free(frames[i], addr.Page4K)
	}
	return b
}

// TestBuddyStateRoundTrip: an allocator restored from a captured state
// has the same free memory and pops the same frames in the same order,
// although its heaps are rebuilt from the free blocks alone.
func TestBuddyStateRoundTrip(t *testing.T) {
	b := fragmented(t)
	fresh := MustNew(64 << 20)
	if err := fresh.SetState(b.State()); err != nil {
		t.Fatal(err)
	}
	if fresh.FreeBytes() != b.FreeBytes() {
		t.Fatalf("restored FreeBytes %d, want %d", fresh.FreeBytes(), b.FreeBytes())
	}
	for i := 0; i < 30; i++ {
		size := addr.Page4K
		if i%10 == 9 {
			size = addr.Page2M
		}
		pa0, ok0 := b.Alloc(size)
		pa1, ok1 := fresh.Alloc(size)
		if pa0 != pa1 || ok0 != ok1 {
			t.Fatalf("alloc %d diverged: original %#x/%v, restored %#x/%v",
				i, uint64(pa0), ok0, uint64(pa1), ok1)
		}
	}
}

// buddyCorruptions damage a valid BuddyState in each way Buddy.SetState
// must reject; want is a fragment of the expected error.
var buddyCorruptions = []struct {
	name, want string
	corrupt    func(s *BuddyState)
}{
	{"geometry", "covers", func(s *BuddyState) { s.TotalFrames *= 2 }},
	{"order arrays", "arrays disagree", func(s *BuddyState) { s.FreeFrames = s.FreeFrames[:len(s.FreeFrames)-1] }},
	{"head beyond memory", "beyond", func(s *BuddyState) { s.FreeFrames[len(s.FreeFrames)-1] = s.TotalFrames }},
	{"order past maximum", "outside", func(s *BuddyState) { s.FreeOrders[0] = Order1G + 1 }},
	{"negative order", "outside", func(s *BuddyState) { s.FreeOrders[0] = -1 }},
	{"misaligned head", "misaligned", func(s *BuddyState) { s.FreeFrames[largeBlock(s)]++ }},
	{"overlapping blocks", "overlaps", func(s *BuddyState) {
		i := largeBlock(s)
		s.FreeFrames = slices.Insert(s.FreeFrames, i+1, s.FreeFrames[i]+1)
		s.FreeOrders = slices.Insert(s.FreeOrders, i+1, 0)
		s.FreeCount++
	}},
	{"unsorted heads", "precedes", func(s *BuddyState) {
		s.FreeFrames[0], s.FreeFrames[1] = s.FreeFrames[1], s.FreeFrames[0]
		s.FreeOrders[0], s.FreeOrders[1] = s.FreeOrders[1], s.FreeOrders[0]
	}},
	{"free count", "free count", func(s *BuddyState) { s.FreeCount++ }},
}

// largeBlock returns the index of the first free block of order > 0.
func largeBlock(s *BuddyState) int {
	for i, o := range s.FreeOrders {
		if o > 0 {
			return i
		}
	}
	panic("no free block above order 0")
}

// TestBuddyStateRejections: every corrupt state is rejected with its
// error, and the rejecting allocator is left exactly as it was.
func TestBuddyStateRejections(t *testing.T) {
	src := fragmented(t)
	for _, tc := range buddyCorruptions {
		t.Run(tc.name, func(t *testing.T) {
			s := src.State()
			tc.corrupt(&s)
			r := MustNew(64 << 20)
			r.AllocOrder(Order2M)
			r.AllocOrder(Order4K)
			before := gobDigest(t, r.State())
			err := r.SetState(s)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("SetState error %v, want one mentioning %q", err, tc.want)
			}
			if gobDigest(t, r.State()) != before {
				t.Error("a rejected state changed the allocator")
			}
			if err := r.checkInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
	if err := MustNew(32 << 20).SetState(src.State()); err == nil {
		t.Error("accepted a state from a larger memory")
	}
}

// TestMemhogStateRoundTrip: a hog restored from a captured state holds
// the same pinned set and compacts identically.
func TestMemhogStateRoundTrip(t *testing.T) {
	b := MustNew(64 << 20)
	h, err := Run(b, rand.New(rand.NewSource(7)), 0.3, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	h.Compact(Order2M)

	b2 := MustNew(64 << 20)
	if err := b2.SetState(b.State()); err != nil {
		t.Fatal(err)
	}
	h2, err := Run(b2, rand.New(rand.NewSource(99)), 0, 0) // empty hog over matching memory
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.SetState(h.State()); err != nil {
		t.Fatal(err)
	}
	if h2.Migrations != h.Migrations || h2.Compactions != h.Compactions {
		t.Errorf("restored counters %d/%d, want %d/%d",
			h2.Migrations, h2.Compactions, h.Migrations, h.Compactions)
	}
	// Note: b2's state was captured before h2's restore, so both buddies
	// and both hogs now agree; compaction must behave the same way.
	if got, want := h2.Compact(Order2M), h.Compact(Order2M); got != want {
		t.Errorf("restored hog compaction = %v, original = %v", got, want)
	}
}

// hogCorruptions damage a valid MemhogState (over 64MB of memory) in
// each way Memhog.SetState must reject; want is a fragment of the
// expected error.
var hogCorruptions = []struct {
	name, want string
	corrupt    func(s *MemhogState)
}{
	{"negative cursor", "negative", func(s *MemhogState) { s.Cursor = -1 }},
	{"frame beyond memory", "beyond", func(s *MemhogState) { s.Frames[0] = 64 << 20 / 4096 }},
	{"duplicate frame", "twice", func(s *MemhogState) { s.Frames[1] = s.Frames[0] }},
}

// TestMemhogStateRejections: every corrupt state is rejected with its
// error, and the rejecting hog is left exactly as it was.
func TestMemhogStateRejections(t *testing.T) {
	src, err := Run(MustNew(64<<20), rand.New(rand.NewSource(7)), 0.2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range hogCorruptions {
		t.Run(tc.name, func(t *testing.T) {
			s := src.State()
			tc.corrupt(&s)
			rb := MustNew(64 << 20)
			r, err := Run(rb, rand.New(rand.NewSource(8)), 0.1, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			before := gobDigest(t, r.State())
			err = r.SetState(s)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("SetState error %v, want one mentioning %q", err, tc.want)
			}
			if gobDigest(t, r.State()) != before {
				t.Error("a rejected state changed the hog")
			}
			if err := r.checkHog(); err != nil {
				t.Error(err)
			}
		})
	}
}

// staleEntries counts heap entries that no longer head a free block of
// their heap's order.
func (b *Buddy) staleEntries() int {
	n := 0
	for _, h := range b.freeLists {
		n += len(h)
	}
	return n - b.freeHeads
}

// TestRestoredBuddyPopsLikeOriginal: a Buddy restored from a State —
// which carries no heaps, so the restored heaps hold none of the
// original's stale entries — pops the same frames as the original
// through random allocations, frees, targeted allocations and
// compactions, and captures the same State bytes after every step. The
// copy is re-restored from the original at random points, so states
// taken with many stale entries outstanding are covered too.
func TestRestoredBuddyPopsLikeOriginal(t *testing.T) {
	const mem = 32 << 20
	b := MustNew(mem)
	rng := rand.New(rand.NewSource(23))
	h, err := Run(b, rng, 0.4, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	rb, rh := restored(t, b, h)
	var live []liveBlock
	maxStale := 0
	for step := 0; step < 2000; step++ {
		var got, want string
		switch op := rng.Intn(12); {
		case op < 4:
			order := []int{0, 0, 1, 3, Order2M}[rng.Intn(5)]
			f, ok := b.AllocOrder(order)
			rf, rok := rb.AllocOrder(order)
			want, got = fmt.Sprint(f, ok), fmt.Sprint(rf, rok)
			if ok {
				live = append(live, liveBlock{f, order})
			}
		case op < 7 && len(live) > 0:
			i := rng.Intn(len(live))
			l := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			want, got = fmt.Sprint(b.FreeOrder(l.frame, l.order)), fmt.Sprint(rb.FreeOrder(l.frame, l.order))
		case op < 9:
			order := rng.Intn(4)
			f := uint64(rng.Intn(mem/4096)) &^ (1<<order - 1)
			err := b.AllocFrameAt(f, order)
			want, got = fmt.Sprint(err), fmt.Sprint(rb.AllocFrameAt(f, order))
			if err == nil {
				live = append(live, liveBlock{f, order})
			}
		case op < 11:
			want, got = fmt.Sprint(h.Compact(Order2M), h.Migrations), fmt.Sprint(rh.Compact(Order2M), rh.Migrations)
		default:
			rb, rh = restored(t, b, h)
		}
		if got != want {
			t.Fatalf("step %d: restored allocator returned %s, original %s", step, got, want)
		}
		maxStale = max(maxStale, b.staleEntries())
		if stateDigest(t, rb, rh) != stateDigest(t, b, h) {
			t.Fatalf("step %d: restored State bytes differ from the original's", step)
		}
		if err := rb.checkInvariants(); err != nil {
			t.Fatalf("step %d: restored: %v", step, err)
		}
	}
	if maxStale == 0 {
		t.Error("the original never carried stale heap entries; the test exercised nothing")
	}
}
