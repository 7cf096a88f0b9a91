package main

import (
	"fmt"
	"sort"

	"seesaw/internal/core"
	"seesaw/internal/machine"
	"seesaw/internal/service"
	"seesaw/internal/workload"
)

// seedClasses is how many distinct input sets the seed argument selects
// between. Every class has its expected report digests checked in
// (golden.json), so any seed the benchmark is given is checked against
// stored outputs, not only against itself.
const seedClasses = 16

// seedClass maps the benchmark's --seed to its input class.
func seedClass(seed int64) int64 {
	c := seed % seedClasses
	if c < 0 {
		c += seedClasses
	}
	return c
}

// simSeed is the simulator seed the benchmark generates from --seed.
func simSeed(seed int64) int64 { return 1 + seedClass(seed) }

// Hot workloads: the steady-state measured phase, forked from masters
// warmed once in set-up.
const (
	hotWarmupRefs = 300_000
	hotRefs       = 200_000
)

// hotSpec is one hot workload: which traces run, and under which OS
// setting.
type hotSpec struct {
	Traces []string
	THPOff bool
}

var hotWorkloads = map[string]hotSpec{
	// Transparent superpages on, no fragmentation: most references hit
	// superpages, so SEESAW's partition fast path and TFT hits dominate.
	"hot-super": {Traces: []string{"redis", "mongo"}},
	// THP off: every reference is a base-page reference; SEESAW takes its
	// slow path, TFT lookups miss, and page walks, TLB fills and
	// coherence misses dominate.
	"hot-base": {Traces: []string{"gups", "mcf"}, THPOff: true},
}

// hotCell is one Fork -> Measure -> Report cell of a hot workload.
type hotCell struct {
	Name   string // "<trace>/<design>", the golden-digest key
	Trace  int    // index into the workload's masters
	Config machine.Config
}

// masterConfig is the warmup-defining config of one hot trace.
func (h hotSpec) masterConfig(trace string, seed int64) (machine.Config, error) {
	p, err := workload.ByName(trace)
	if err != nil {
		return machine.Config{}, err
	}
	return machine.Config{
		Workload:   p,
		Seed:       simSeed(seed),
		Refs:       hotRefs,
		WarmupRefs: hotWarmupRefs,
		THPOff:     h.THPOff,
		CacheKind:  machine.KindSeesaw,
	}, nil
}

// cells enumerates every (trace, registered design) cell, so a newly
// registered design joins the hot loop with no benchmark edit.
func (h hotSpec) cells(seed int64) ([]hotCell, error) {
	var out []hotCell
	for ti, tr := range h.Traces {
		base, err := h.masterConfig(tr, seed)
		if err != nil {
			return nil, err
		}
		for _, d := range core.DesignNames() {
			c := base
			c.CacheKind = machine.CacheKind(d)
			out = append(out, hotCell{Name: tr + "/" + d, Trace: ti, Config: c})
		}
	}
	return out, nil
}

// cell-churn: many short cells through client -> coordinator -> worker
// with an on-disk store and the snapshot ladder, at memhog 0.6.
const (
	churnMemhog     = 0.6
	churnWarmupRefs = 100_000
	churnRungEvery  = 50_000
	churnRefs       = 20_000
)

var (
	churnTraces  = []string{"redis", "mcf"}
	churnDesigns = []string{"baseline", "seesaw", "pipt", "vespa"}
	// Cold-pass design points use the default 32KB L1; the warm pass's
	// new points use 64KB, so they share the cold cells' warmup
	// signatures and a restarted worker resumes each from a stored rung.
	churnColdKB, churnWarmKB uint64 = 0, 64
)

// churnCell is one cell submitted through the cluster client.
type churnCell struct {
	Name string // golden-digest key
	Spec service.CellSpec
}

// churnCells returns the cold pass's cells and the warm pass's new
// design points, on two warmup signatures per trace (simulator seeds
// s and s+100). Cells are ordered design-major, so consecutive cells
// change warmup signature.
//
// The mix fixes which kind of cell each reported percentile falls on.
// Per cycle of 16 cold cells, 16 new points and 16 resubmissions there
// are 16 store hits, 24 forks from an in-memory master, 4 rung resumes
// and 4 cold climbs: the median is a fork and the p90 a rung resume for
// any number of cycles, never a boundary between two kinds.
func churnCells(seed int64) (cold, fresh []churnCell) {
	s := simSeed(seed)
	mk := func(sizeKB uint64) []churnCell {
		var out []churnCell
		for _, d := range churnDesigns {
			for _, tr := range churnTraces {
				for _, sig := range []int64{0, 100} {
					out = append(out, churnCell{
						Name: fmt.Sprintf("%s-s%d/%s-%dk", tr, sig, d, max(sizeKB, 32)),
						Spec: service.CellSpec{
							Workload: tr, Cache: d, SizeKB: sizeKB,
							Refs: churnRefs, WarmupRefs: churnWarmupRefs,
							Seed: s + sig, Memhog: churnMemhog,
						},
					})
				}
			}
		}
		return out
	}
	return mk(churnColdKB), mk(churnWarmKB)
}

// workloadNames lists every workload the benchmark defines.
func workloadNames() []string {
	names := []string{"cell-churn"}
	for n := range hotWorkloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
