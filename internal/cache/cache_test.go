package cache

import (
	"math/rand"
	"testing"

	"seesaw/internal/addr"
)

func geom32K() addr.CacheGeometry { return addr.MustCacheGeometry(32<<10, 8, 2) }

func TestStateProperties(t *testing.T) {
	if Invalid.Dirty() || Shared.Dirty() || Exclusive.Dirty() {
		t.Error("clean states report dirty")
	}
	if !Owned.Dirty() || !Modified.Dirty() {
		t.Error("dirty states report clean")
	}
	if Modified.String() != "M" || Invalid.String() != "I" {
		t.Error("state strings wrong")
	}
}

func TestProbeMissOnEmpty(t *testing.T) {
	c := New(geom32K())
	if _, hit := c.Probe(0, AnyPartition, 42); hit {
		t.Error("hit on empty cache")
	}
	if c.ValidLines() != 0 {
		t.Error("empty cache has valid lines")
	}
}

func TestInsertProbeRoundTrip(t *testing.T) {
	c := New(geom32K())
	v := c.Insert(5, 1, 0xabc, Exclusive)
	if v.Valid {
		t.Error("insertion into empty set produced a victim")
	}
	w, hit := c.Probe(5, 1, 0xabc)
	if !hit {
		t.Fatal("probe missed inserted line")
	}
	if c.PartitionOfWay(w) != 1 {
		t.Errorf("line landed in partition %d, want 1", c.PartitionOfWay(w))
	}
	// Probing only partition 0 must miss: the line is confined to 1.
	if _, hit := c.Probe(5, 0, 0xabc); hit {
		t.Error("line visible in wrong partition")
	}
	if _, hit := c.Probe(5, AnyPartition, 0xabc); !hit {
		t.Error("line invisible to full-set probe")
	}
}

func TestAccessStats(t *testing.T) {
	c := New(geom32K())
	c.Insert(0, 0, 1, Shared)
	c.Access(0, AnyPartition, 1)
	c.Access(0, AnyPartition, 2)
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
	if got := c.MPKI(1000); got != 1 {
		t.Errorf("MPKI = %v", got)
	}
	if c.MPKI(0) != 0 {
		t.Error("MPKI with zero instructions must be 0")
	}
}

func TestPartitionLocalLRU(t *testing.T) {
	// Fill partition 0 (ways 0-3) with tags 1-4, then insert a 5th into
	// partition 0: the LRU of that partition must be evicted even though
	// partition 1 is empty — this is the "4way" insertion policy.
	c := New(geom32K())
	for tag := uint64(1); tag <= 4; tag++ {
		c.Insert(0, 0, tag, Shared)
	}
	c.Access(0, 0, 1) // tag 1 becomes MRU; tag 2 is LRU
	v := c.Insert(0, 0, 5, Shared)
	if !v.Valid || v.Tag != 2 {
		t.Fatalf("victim = %+v, want tag 2", v)
	}
	if c.PartitionOfWay(v.Way) != 0 {
		t.Error("victim came from wrong partition")
	}
	// Partition 1 stayed empty.
	for w := 4; w < 8; w++ {
		if c.StateOf(0, w) != Invalid {
			t.Error("partition 1 was disturbed")
		}
	}
}

func TestGlobalLRUUsesWholeSet(t *testing.T) {
	// The "4way-8way" policy inserts base pages with AnyPartition: with
	// partition 0 full and partition 1 empty there must be no eviction.
	c := New(geom32K())
	for tag := uint64(1); tag <= 4; tag++ {
		c.Insert(0, 0, tag, Shared)
	}
	v := c.Insert(0, AnyPartition, 99, Shared)
	if v.Valid {
		t.Fatalf("global insert evicted %+v with free ways available", v)
	}
	if c.ValidLines() != 5 {
		t.Errorf("valid = %d", c.ValidLines())
	}
}

func TestEvictionWritebackAccounting(t *testing.T) {
	c := New(geom32K())
	for tag := uint64(1); tag <= 4; tag++ {
		c.Insert(0, 0, tag, Modified)
	}
	c.Insert(0, 0, 5, Shared)
	if c.Stats.Evictions != 1 || c.Stats.Writebacks != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(geom32K())
	c.Insert(3, 1, 7, Owned)
	st, ok := c.Invalidate(3, 7)
	if !ok || st != Owned {
		t.Fatalf("invalidate = %v %v", st, ok)
	}
	if _, hit := c.Probe(3, AnyPartition, 7); hit {
		t.Error("line survived invalidation")
	}
	if _, ok := c.Invalidate(3, 7); ok {
		t.Error("second invalidate found the line")
	}
}

func TestInsertInvalidPanics(t *testing.T) {
	c := New(geom32K())
	defer func() {
		if recover() == nil {
			t.Error("Insert(Invalid) did not panic")
		}
	}()
	c.Insert(0, 0, 1, Invalid)
}

func TestFindLineAndEvictRange(t *testing.T) {
	g := geom32K()
	c := New(g)
	// Insert lines covering a 4KB physical page.
	base := addr.PAddr(0x40000000)
	for off := uint64(0); off < 4096; off += addr.LineSize {
		pa := base + addr.PAddr(off)
		c.Insert(g.SetIndexP(pa), g.PartitionIndexP(pa), g.TagP(pa), Modified)
	}
	if c.ValidLines() != 64 {
		t.Fatalf("valid = %d, want 64", c.ValidLines())
	}
	if _, _, ok := c.FindLine(base + 128); !ok {
		t.Error("FindLine missed a resident line")
	}
	victims := c.EvictRange(base, base+4096)
	if len(victims) != 64 {
		t.Errorf("sweep evicted %d lines, want 64", len(victims))
	}
	if c.ValidLines() != 0 {
		t.Errorf("lines survived the sweep: %d", c.ValidLines())
	}
	if c.Stats.Writebacks != 64 {
		t.Errorf("dirty sweep writebacks = %d", c.Stats.Writebacks)
	}
	if _, _, ok := c.FindLine(base); ok {
		t.Error("FindLine hit after sweep")
	}
}

func TestEvictRangeSparesOutsiders(t *testing.T) {
	g := geom32K()
	c := New(g)
	in := addr.PAddr(0x1000)
	out := addr.PAddr(0x200000)
	c.Insert(g.SetIndexP(in), AnyPartition, g.TagP(in), Shared)
	c.Insert(g.SetIndexP(out), AnyPartition, g.TagP(out), Shared)
	c.EvictRange(0x1000, 0x2000)
	if _, _, ok := c.FindLine(out); !ok {
		t.Error("sweep evicted a line outside the range")
	}
}

// TestInsertionNeverDuplicates checks a storage invariant under random
// partition-local traffic: a physical line address maps to one set and
// lives in at most one way.
func TestInsertionNeverDuplicates(t *testing.T) {
	g := geom32K()
	c := New(g)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		pa := addr.PAddr(rng.Uint64() & 0xffffff).LineBase()
		set, tag := g.SetIndexP(pa), g.TagP(pa)
		part := g.PartitionIndexP(pa)
		if _, hit := c.Access(set, part, tag); !hit {
			c.Insert(set, part, tag, Shared)
		}
	}
	for set := 0; set < g.Sets(); set++ {
		seen := map[uint64]int{}
		for w := 0; w < g.Ways; w++ {
			if c.StateOf(set, w) == Invalid {
				continue
			}
			tag := c.TagOf(set, w)
			if prev, dup := seen[tag]; dup {
				t.Fatalf("set %d: tag %#x in ways %d and %d", set, tag, prev, w)
			}
			seen[tag] = w
		}
	}
}

// TestPartitionConfinement: under the 4way policy, every line's resident
// partition must equal the partition index derived from its physical
// address — the invariant that makes partition-filtered coherence lookups
// correct.
func TestPartitionConfinement(t *testing.T) {
	g := geom32K()
	c := New(g)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 20000; i++ {
		pa := addr.PAddr(rng.Uint64() & 0xffffff).LineBase()
		set, tag, part := g.SetIndexP(pa), g.TagP(pa), g.PartitionIndexP(pa)
		if _, hit := c.Access(set, part, tag); !hit {
			c.Insert(set, part, tag, Shared)
		}
	}
	for set := 0; set < g.Sets(); set++ {
		for w := 0; w < g.Ways; w++ {
			if c.StateOf(set, w) == Invalid {
				continue
			}
			pa := g.LineFromSetTag(set, c.TagOf(set, w))
			if g.PartitionIndexP(pa) != c.PartitionOfWay(w) {
				t.Fatalf("line %#x resident in partition %d, address says %d",
					uint64(pa), c.PartitionOfWay(w), g.PartitionIndexP(pa))
			}
		}
	}
}

// TestFillMarkBoundsOccupiedWays drives random inserts, state changes,
// invalidations and sweeps and checks after each one that no valid way
// sits at or above its set's fill mark, that Insert still takes the
// lowest invalid way of its scope, and that Probe agrees with a scan of
// every way. A restored image and a clone must carry equivalent marks.
func TestFillMarkBoundsOccupiedWays(t *testing.T) {
	g := addr.MustCacheGeometry(4<<10, 8, 2) // 8 sets
	c := New(g)
	rng := rand.New(rand.NewSource(1))
	scan := func(c *Cache, set, part int, tag uint64) (int, bool) {
		lo, hi := c.wayRange(part)
		for w := lo; w < hi; w++ {
			if c.StateOf(set, w) != Invalid && c.TagOf(set, w) == tag {
				return w, true
			}
		}
		return 0, false
	}
	check := func(c *Cache, step int) {
		t.Helper()
		for set := 0; set < g.Sets(); set++ {
			for w := int(c.fill[set]); w < g.Ways; w++ {
				if c.StateOf(set, w) != Invalid {
					t.Fatalf("step %d: set %d way %d valid above fill mark %d", step, set, w, c.fill[set])
				}
			}
			for tag := uint64(0); tag < 6; tag++ {
				for part := AnyPartition; part < g.Partitions; part++ {
					w, ok := c.Probe(set, part, tag)
					rw, rok := scan(c, set, part, tag)
					if ok != rok || w != rw {
						t.Fatalf("step %d: Probe(%d,%d,%d) = %d,%v; scan says %d,%v", step, set, part, tag, w, ok, rw, rok)
					}
				}
			}
		}
	}
	for step := 0; step < 4000; step++ {
		set := rng.Intn(g.Sets())
		tag := uint64(rng.Intn(6))
		switch rng.Intn(5) {
		case 0, 1:
			part := rng.Intn(g.Partitions+1) - 1
			lo, hi := c.wayRange(part)
			want := -1
			for w := lo; w < hi; w++ {
				if c.StateOf(set, w) == Invalid {
					want = w
					break
				}
			}
			if v := c.Insert(set, part, tag, Exclusive); want >= 0 && v.Way != want {
				t.Fatalf("step %d: Insert took way %d, lowest invalid is %d", step, v.Way, want)
			}
		case 2:
			c.SetState(set, rng.Intn(g.Ways), State(rng.Intn(5)))
		case 3:
			c.Invalidate(set, tag)
		case 4:
			lo := addr.PAddr(rng.Intn(64) << 6)
			c.EvictRange(lo, lo+addr.PAddr(rng.Intn(4096)))
		}
		check(c, step)
	}
	check(c.Clone(), -1)
	restored := New(g)
	if err := restored.SetImage(c.Image()); err != nil {
		t.Fatal(err)
	}
	check(restored, -2)
}
