package coherence

import (
	"testing"

	"seesaw/internal/addr"
	"seesaw/internal/core"
	"seesaw/internal/tft"
)

// warmedSystem builds a two-core system with shared, exclusive, and
// modified lines so the directory, LLC, and per-core accumulators all
// carry state.
func warmedSystem(t *testing.T) (*System, []*core.Seesaw) {
	t.Helper()
	sys, l1s := newSystem(t, 2, Directory)
	loadTo(sys, l1s[0], 0, 0x1000)
	loadTo(sys, l1s[1], 1, 0x1000) // shared pair
	storeTo(sys, l1s[0], 0, 0x2000)
	loadTo(sys, l1s[1], 1, 0x2000) // peer supply from the modified owner
	loadTo(sys, l1s[0], 0, 0x3000) // exclusive
	return sys, l1s
}

// restoreTwin restores the system's state (L1s included) onto a fresh
// identically shaped system.
func restoreTwin(t *testing.T, sys *System) (*System, []*core.Seesaw) {
	t.Helper()
	twin, l1s := newSystem(t, 2, Directory)
	srcL1s := sys.l1s
	for i, l1 := range l1s {
		if err := core.SetL1State(l1, core.StateOf(srcL1s[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := twin.SetState(sys.State()); err != nil {
		t.Fatal(err)
	}
	return twin, l1s
}

// TestSystemStateRoundTrip: a restored memory system serves the same
// misses from the same places — directory knowledge, LLC contents,
// statistics, and the per-core coherence accumulators all travel.
func TestSystemStateRoundTrip(t *testing.T) {
	sys, l1s := warmedSystem(t)
	twin, tl1s := restoreTwin(t, sys)

	if twin.Stats != sys.Stats {
		t.Errorf("restored stats %+v, want %+v", twin.Stats, sys.Stats)
	}
	for i := range sys.CoherenceEnergyNJ {
		if twin.CoherenceEnergyNJ[i] != sys.CoherenceEnergyNJ[i] ||
			twin.CoherenceProbes[i] != sys.CoherenceProbes[i] {
			t.Errorf("core %d accumulators diverge", i)
		}
	}
	// The same store on both systems must hit the same coherence paths.
	storeTo(sys, l1s[1], 1, 0x1000)
	storeTo(twin, tl1s[1], 1, 0x1000)
	if twin.Stats != sys.Stats {
		t.Errorf("post-restore store diverged: %+v vs %+v", twin.Stats, sys.Stats)
	}
	// A load of an LLC-resident line must come from the same level.
	mr0 := sys.Miss(0, 0x9000, false)
	mr1 := twin.Miss(0, 0x9000, false)
	if mr0 != mr1 {
		t.Errorf("post-restore miss diverged: %+v vs %+v", mr0, mr1)
	}
}

// TestSystemStateRejections: core-count mismatches, out-of-range
// directory owners, and LLC geometry mismatches are corrupt states.
func TestSystemStateRejections(t *testing.T) {
	sys, _ := warmedSystem(t)

	small, _ := newSystem(t, 1, Directory)
	if err := small.SetState(sys.State()); err == nil {
		t.Error("accepted a state sized for more cores")
	}

	owner := sys.State()
	owner.Dir = append([]DirState(nil), owner.Dir...)
	owner.Dir[0].Owner = 7
	twin, _ := newSystem(t, 2, Directory)
	if err := twin.SetState(owner); err == nil {
		t.Error("accepted a directory owner outside the system")
	}

	llc := sys.State()
	if llc.LLC.States == nil {
		t.Fatal("the warmed LLC image omits its line states")
	}
	llc.LLC.States = llc.LLC.States[:8]
	if err := twin.SetState(llc); err == nil {
		t.Error("accepted an LLC image with the wrong geometry")
	}
}

// TestSystemClone: the clone serves from its own directory and LLC —
// traffic on one side never moves the other's statistics.
func TestSystemClone(t *testing.T) {
	sys, l1s := warmedSystem(t)
	cl1s := make([]core.L1Cache, len(l1s))
	rawClones := make([]*core.Seesaw, len(l1s))
	for i, l1 := range l1s {
		cl1s[i] = l1.Clone()
		rawClones[i] = cl1s[i].(*core.Seesaw)
	}
	c := sys.Clone(cl1s)
	if c.Stats != sys.Stats {
		t.Errorf("clone stats %+v, want %+v", c.Stats, sys.Stats)
	}
	before := sys.Stats
	storeTo(c, cl1s[1], 1, 0x1000)
	if sys.Stats != before {
		t.Error("traffic on the clone moved the original's statistics")
	}
	_ = rawClones
}

// TestPIPTAndBaselineClone covers the non-SEESAW Clone paths next to
// the coherence wiring they are cloned for.
func TestPIPTAndBaselineClone(t *testing.T) {
	ccfg := core.Config{SizeBytes: 32 << 10, Ways: 8, FreqGHz: 1.33, TFT: tft.DefaultConfig()}
	for _, l1 := range []core.L1Cache{
		core.MustNewBaselineVIPT(ccfg), core.MustNewPIPT(ccfg),
	} {
		l1.Access(0x1000, 0x1000, addr.Page4K, false)
		l1.Fill(0x1000, addr.Page4K, false, false)
		c := l1.Clone()
		r0 := l1.Access(0x1000, 0x1000, addr.Page4K, false)
		r1 := c.Access(0x1000, 0x1000, addr.Page4K, false)
		if r0 != r1 {
			t.Errorf("%s: clone access %+v, original %+v", l1.Name(), r1, r0)
		}
	}
}
