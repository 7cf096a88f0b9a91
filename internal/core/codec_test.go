package core

import (
	"testing"

	"seesaw/internal/addr"
	"seesaw/internal/cache"
	"seesaw/internal/waypred"
)

// warmSeesaw advances a predicting SEESAW L1 through fast-path hits,
// slow-path hits, and misses so storage, TFT, way predictor, and the
// SEESAW statistics all carry state.
func warmSeesaw() *Seesaw {
	s := MustNewSeesaw(wpCfg())
	va := addr.VAddr(0x4000_0000 | 1<<12)
	pa := translate2M(va, 7)
	s.OnSuperpageTLBFill(va)
	s.Fill(pa, addr.Page2M, false, false)
	s.Access(va, pa, addr.Page2M, false) // fast-path hit
	s.Access(va+64, pa+64, addr.Page2M, false)
	s.Access(0x1000, 0x1000, addr.Page4K, false) // base-page miss
	s.Fill(0x1000, addr.Page4K, false, false)
	return s
}

// TestSeesawStateRoundTrip: a SEESAW L1 restored from a captured state
// answers the same accesses with the same latencies and probe scopes —
// storage image, TFT, way-predictor history, and statistics all travel.
func TestSeesawStateRoundTrip(t *testing.T) {
	s := warmSeesaw()
	fresh := MustNewSeesaw(wpCfg())
	if err := SetL1State(fresh, StateOf(s)); err != nil {
		t.Fatal(err)
	}
	if fresh.Stats != s.Stats {
		t.Errorf("restored SEESAW stats %+v, want %+v", fresh.Stats, s.Stats)
	}
	va := addr.VAddr(0x4000_0000 | 1<<12)
	pa := translate2M(va, 7)
	for _, probe := range []struct {
		va addr.VAddr
		pa addr.PAddr
		ps addr.PageSize
	}{
		{va, pa, addr.Page2M},
		{0x1000, 0x1000, addr.Page4K},
		{0x5000, 0x5000, addr.Page4K}, // miss
	} {
		r0 := s.Access(probe.va, probe.pa, probe.ps, false)
		r1 := fresh.Access(probe.va, probe.pa, probe.ps, false)
		if r0 != r1 {
			t.Errorf("Access(%#x): original %+v, restored %+v", uint64(probe.va), r0, r1)
		}
	}
	if got, want := fresh.Predictor().Predictions, s.Predictor().Predictions; got != want {
		t.Errorf("restored predictor at %d predictions, want %d", got, want)
	}
}

// TestBaselineAndPIPTStateRoundTrip covers the two non-SEESAW designs
// through the same interface surface.
func TestBaselineAndPIPTStateRoundTrip(t *testing.T) {
	b := MustNewBaselineVIPT(wpCfg())
	b.Access(0x1000, 0x1000, addr.Page4K, false)
	b.Fill(0x1000, addr.Page4K, false, false)
	b2 := MustNewBaselineVIPT(wpCfg())
	if err := SetL1State(b2, StateOf(b)); err != nil {
		t.Fatal(err)
	}
	if r0, r1 := b.Access(0x1000, 0x1000, addr.Page4K, false), b2.Access(0x1000, 0x1000, addr.Page4K, false); r0 != r1 {
		t.Errorf("baseline: original %+v, restored %+v", r0, r1)
	}

	p := MustNewPIPT(cfg32K(1.33))
	p.Access(0x2000, 0x2000, addr.Page4K, true)
	p.Fill(0x2000, addr.Page4K, true, false)
	p2 := MustNewPIPT(cfg32K(1.33))
	if err := SetL1State(p2, StateOf(p)); err != nil {
		t.Fatal(err)
	}
	if r0, r1 := p.Access(0x2000, 0x2000, addr.Page4K, false), p2.Access(0x2000, 0x2000, addr.Page4K, false); r0 != r1 {
		t.Errorf("PIPT: original %+v, restored %+v", r0, r1)
	}
}

// fakeL1 is an unknown design for the rejection path: real storage (the
// image restore runs before the design switch), unknown everything else.
type fakeL1 struct {
	L1Cache
	c *cache.Cache
}

func (f fakeL1) Storage() *cache.Cache { return f.c }

// TestL1StateRejections: cross-design restores are corrupt — a state
// must carry exactly the side structures its design owns.
func TestL1StateRejections(t *testing.T) {
	seesawState := StateOf(warmSeesaw())

	noTFT := seesawState
	noTFT.TFT = nil
	if err := SetL1State(MustNewSeesaw(wpCfg()), noTFT); err == nil {
		t.Error("SEESAW accepted a state missing its TFT")
	}

	if err := SetL1State(MustNewBaselineVIPT(wpCfg()), seesawState); err == nil {
		t.Error("baseline accepted a SEESAW state (stray TFT)")
	}
	if err := SetL1State(MustNewPIPT(cfg32K(1.33)), seesawState); err == nil {
		t.Error("PIPT accepted a SEESAW state (stray TFT/predictor)")
	}

	noWP := seesawState
	noWP.WP = nil
	if err := SetL1State(MustNewSeesaw(wpCfg()), noWP); err == nil {
		t.Error("predicting SEESAW accepted a state without predictor history")
	}
	stray := StateOf(MustNewSeesaw(cfg32K(1.33)))
	ws := waypred.NewMRU(4).State()
	stray.WP = &ws
	if err := SetL1State(MustNewSeesaw(cfg32K(1.33)), stray); err == nil {
		t.Error("non-predicting SEESAW accepted predictor history")
	}

	geom := StateOf(warmSeesaw())
	if geom.Cache.States == nil {
		t.Fatal("the warmed storage image omits its line states")
	}
	geom.Cache.States = geom.Cache.States[:4]
	if err := SetL1State(MustNewSeesaw(wpCfg()), geom); err == nil {
		t.Error("accepted a storage image with the wrong geometry")
	}

	fake := fakeL1{c: MustNewSeesaw(cfg32K(1.33)).Storage()}
	if err := SetL1State(fake, L1State{Cache: fake.c.Image()}); err == nil {
		t.Error("accepted an unknown L1 design")
	}
}

// TestSeesawClone: the clone answers like the original, then diverges.
func TestSeesawClone(t *testing.T) {
	s := warmSeesaw()
	c := s.Clone().(*Seesaw)
	if c.Stats != s.Stats {
		t.Errorf("clone stats %+v, want %+v", c.Stats, s.Stats)
	}
	va := addr.VAddr(0x4000_0000 | 1<<12)
	pa := translate2M(va, 7)
	if r0, r1 := s.Access(va, pa, addr.Page2M, false), c.Access(va, pa, addr.Page2M, false); r0 != r1 {
		t.Errorf("clone access %+v, original %+v", r1, r0)
	}
	c.ContextSwitch() // flushes the clone's TFT only
	before := s.Stats
	s.Access(va, pa, addr.Page2M, false)
	if s.Stats == before {
		t.Error("original stopped counting after the clone's context switch")
	}
}
