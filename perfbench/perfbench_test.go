package main

import (
	"math"
	"testing"

	"seesaw/internal/core"
	"seesaw/internal/machine"
	"seesaw/internal/workload"
)

// Every registered design, and every CPU model, must get its kernel
// metrics with no benchmark edit: the kernels enumerate the registry.
func TestKernelsCoverEveryDesign(t *testing.T) {
	p, err := workload.ByName("redis")
	if err != nil {
		t.Fatal(err)
	}
	s, err := buildStream(kernelTrace{Profile: p, Seed: 1}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	ks := newKernelSet()
	if err := runLayerKernels(ks, s, 1); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, d := range core.Designs() {
		for _, op := range []string{"access", "fill", "snoop"} {
			want = append(want, "core."+d.Name+"."+op)
		}
	}
	for _, m := range cpuModels {
		want = append(want, "cpu."+m+".retire")
	}
	want = append(want, "workload.next", "tlb.translate", "tft.lookup", "tft.fill", "coherence.miss")
	for _, name := range want {
		r, ok := ks.get(name)
		if !ok || !(r.NS > 0) {
			t.Errorf("kernel %s: got %+v, present=%v; want a positive ns/op", name, r, ok)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(n=4), which
// the acceptance rule uses: quantiles([1..10]) = [2.75, 5.5, 8.25] and
// quantiles([3, 1, 2]) = [1.0, 2.0, 3.0] and quantiles([5, 1]) =
// [0.0, 3.0, 6.0].
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}}, // exclusive method extrapolates
	} {
		q1, q2, q3 := quartiles(tc.in)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// Self time subtracts the union of the children's intervals, clipped to
// the parent: overlapping children are not subtracted twice.
func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "cell", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},
	}
	st := selfTimes(spans)
	for name, want := range map[string]int64{"cell": 100 - 50 - 10, "a": 30 - 5, "b": 30, "c": 30, "d": 5} {
		if got := st[name].SelfNS; got != want {
			t.Errorf("self(%s) = %d, want %d", name, got, want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if pct, v := tail(xs); pct != 90 || v != 180 {
		t.Errorf("tail of 1..200 = p%d %v, want p90 180", pct, v)
	}
	if pct, _ := tail(xs[:60]); pct != 75 {
		t.Errorf("tail of 60 samples = p%d, want p75 (15 beyond)", pct)
	}
}

// A report that differs from its stored digest, or from an earlier
// report of the same cell in the run, is a failed operation.
func TestCheckerCountsMismatches(t *testing.T) {
	a := &machine.Report{Design: "seesaw", Cycles: 1}
	b := &machine.Report{Design: "seesaw", Cycles: 2}
	da, err := digest(a)
	if err != nil {
		t.Fatal(err)
	}
	ck := newChecker(map[string]string{"x": da})
	ck.check("x", a, nil)
	ck.check("x", b, nil) // differs from the stored digest
	ck.check("y", b, nil) // no stored digest: first report is the reference
	ck.check("y", b, nil)
	ck.check("y", a, nil) // differs from the first report of y
	if ck.attempted != 5 || ck.failed != 2 {
		t.Errorf("attempted %d failed %d, want 5 and 2 (%v)", ck.attempted, ck.failed, ck.problems)
	}
}

func TestGeomeanGain(t *testing.T) {
	s := &sample{}
	s.addCell("redis/baseline", "", 1, 1, 1, &machine.Report{Cycles: 100, EnergyTotalNJ: 10})
	s.addCell("redis/seesaw", "", 1, 1, 1, &machine.Report{Cycles: 90, EnergyTotalNJ: 8})
	s.addCell("mcf/baseline", "", 1, 1, 1, &machine.Report{Cycles: 100, EnergyTotalNJ: 10})
	s.addCell("mcf/seesaw", "", 1, 1, 1, &machine.Report{Cycles: 100, EnergyTotalNJ: 10})
	gain, energy := simGains(s)
	if want := 100 * (1 - math.Sqrt(0.9)); math.Abs(gain-want) > 1e-9 {
		t.Errorf("runtime gain %v, want %v", gain, want)
	}
	if want := 100 * (1 - math.Sqrt(0.8)); math.Abs(energy-want) > 1e-9 {
		t.Errorf("energy saving %v, want %v", energy, want)
	}
}
