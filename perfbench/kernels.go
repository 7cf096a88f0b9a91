package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"seesaw/internal/addr"
	"seesaw/internal/coherence"
	"seesaw/internal/core"
	"seesaw/internal/cpu"
	"seesaw/internal/machine"
	"seesaw/internal/osmm"
	"seesaw/internal/pagetable"
	"seesaw/internal/physmem"
	"seesaw/internal/store"
	"seesaw/internal/tft"
	"seesaw/internal/tlb"
	"seesaw/internal/trace"
	"seesaw/internal/workload"
	"seesaw/internal/xrand"
)

// cpuModels are the core timing models the kernels cover.
var cpuModels = []string{"ooo", "inorder"}

// kernelTrace names the OS setting one kernel input stream is generated
// under: the same profile, seed, THP setting and fragmentation as the
// workload's own cells.
type kernelTrace struct {
	Profile workload.Profile
	Seed    int64
	THPOff  bool
	Memhog  float64
}

// stream is a fixed, pre-generated and pre-translated reference stream.
type stream struct {
	kt      kernelTrace
	recs    []trace.Record
	pa      []addr.PAddr
	size    []addr.PageSize
	sched   []int // thread interleave, as the machine schedules it
	nCores  int
	pt      *pagetable.Table
	regions [3]addr.VAddr // heap, small, OS region bases
}

// buildStream maps the workload's regions the way the machine's OS
// layer does and records n references with their translations.
func buildStream(kt kernelTrace, n int) (*stream, error) {
	rng, _ := xrand.New(kt.Seed)
	buddy, err := physmem.New(1 << 30)
	if err != nil {
		return nil, err
	}
	mgr := osmm.NewManager(buddy, rng, !kt.THPOff)
	if kt.Memhog > 0 {
		hog, err := physmem.Run(buddy, rng, kt.Memhog, 0.97)
		if err != nil {
			return nil, err
		}
		mgr.Compactor = hog
	}
	proc, err := mgr.NewProcess(1)
	if err != nil {
		return nil, err
	}
	g := workload.NewGenerator(kt.Profile, kt.Seed)
	s := &stream{kt: kt, nCores: g.Threads() + 1, pt: proc.PT}
	for i, r := range []struct {
		bytes uint64
		huge  bool
	}{{g.HeapBytes(), true}, {g.SmallBytes(), false}, {g.OSBytes(), false}} {
		if s.regions[i], err = mgr.MmapHuge(proc, r.bytes, r.huge); err != nil {
			return nil, fmt.Errorf("map region %d: %w", i, err)
		}
	}
	g.Bind(s.regions[0], s.regions[1], s.regions[2])
	for t := 0; t < g.Threads(); t++ {
		for k := 0; k < 8; k++ {
			s.sched = append(s.sched, t)
		}
	}
	s.sched = append(s.sched, g.SystemTID())
	for i := 0; len(s.recs) < n; i++ {
		rec := g.Next(s.sched[i%len(s.sched)])
		pa, size, ok := proc.PT.Translate(rec.VA)
		if !ok {
			return nil, fmt.Errorf("unmapped generator address %#x", uint64(rec.VA))
		}
		s.recs = append(s.recs, rec)
		s.pa = append(s.pa, pa)
		s.size = append(s.size, size)
	}
	return s, nil
}

// generator returns a fresh generator bound to the stream's regions.
func (s *stream) generator() *workload.Generator {
	g := workload.NewGenerator(s.kt.Profile, s.kt.Seed)
	g.Bind(s.regions[0], s.regions[1], s.regions[2])
	return g
}

// kernelResult is one kernel's cost per operation.
type kernelResult struct {
	NS     float64 // median over passes
	Allocs float64
}

// timeKernel runs fn (which performs ops operations) passes times and
// returns the median ns/op and the mean allocations per op.
func timeKernel(passes, ops int, fn func()) kernelResult {
	ns := make([]float64, passes)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range ns {
		t0 := time.Now()
		fn()
		ns[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}
	runtime.ReadMemStats(&m1)
	return kernelResult{NS: median(ns), Allocs: float64(m1.Mallocs-m0.Mallocs) / float64(passes*ops)}
}

// kernelSet accumulates kernel results over every input stream; the
// reported figure is the op-weighted mean over streams.
type kernelSet struct {
	order []string
	sum   map[string]*[3]float64 // ns*ops, allocs*ops, ops
}

func newKernelSet() *kernelSet { return &kernelSet{sum: make(map[string]*[3]float64)} }

func (k *kernelSet) add(name string, ops int, r kernelResult) {
	a, ok := k.sum[name]
	if !ok {
		a = new([3]float64)
		k.sum[name] = a
		k.order = append(k.order, name)
	}
	a[0] += r.NS * float64(ops)
	a[1] += r.Allocs * float64(ops)
	a[2] += float64(ops)
}

func (k *kernelSet) get(name string) (kernelResult, bool) {
	a, ok := k.sum[name]
	if !ok || a[2] == 0 {
		return kernelResult{}, false
	}
	return kernelResult{NS: a[0] / a[2], Allocs: a[1] / a[2]}, true
}

// l1Config is the machine's default L1D geometry (32KB, 8 ways).
func l1Config() core.Config {
	return core.Config{SizeBytes: 32 << 10, Ways: 8, FreqGHz: 1.33, TFT: tft.DefaultConfig()}
}

// superFiller is the TLB-fill hook designs with a TFT expose.
type superFiller interface{ OnSuperpageTLBFill(addr.VAddr) }

// miss is one L1 miss of the warm-up pass, the input of the fill and
// coherence kernels.
type miss struct {
	core  int
	pa    addr.PAddr
	size  addr.PageSize
	store bool
}

// runLayerKernels times every per-reference layer on the stream:
// generator, TLB hierarchy, TFT, every registered L1 design, coherence
// and both CPU models.
func runLayerKernels(ks *kernelSet, s *stream, passes int) error {
	n := len(s.recs)

	g := s.generator()
	ks.add("workload.next", n, timeKernel(passes, n, func() {
		for i := 0; i < n; i++ {
			g.Next(s.sched[i%len(s.sched)])
		}
	}))

	h, err := tlb.NewHierarchy(tlb.SandybridgeTLBs(), pagetable.NewWalker(s.pt, 20))
	if err != nil {
		return err
	}
	extra := make([]int, n)
	for i, r := range s.recs {
		extra[i] = h.Translate(r.VA, 1).ExtraCycles
	}
	ks.add("tlb.translate", n, timeKernel(passes, n, func() {
		for _, r := range s.recs {
			h.Translate(r.VA, 1)
		}
	}))

	f := tft.New(tft.DefaultConfig())
	for i, r := range s.recs {
		if !f.Lookup(r.VA) && s.size[i].IsSuper() {
			f.Fill(r.VA)
		}
	}
	ks.add("tft.lookup", n, timeKernel(passes, n, func() {
		for _, r := range s.recs {
			f.Lookup(r.VA)
		}
	}))
	ks.add("tft.fill", n, timeKernel(passes, n, func() {
		for _, r := range s.recs {
			f.Fill(r.VA)
		}
	}))

	var baseMisses []miss
	var costs []cpu.MemCost
	for _, d := range core.Designs() {
		l1, err := d.New(l1Config())
		if err != nil {
			return fmt.Errorf("design %s: %w", d.Name, err)
		}
		sf, _ := l1.(superFiller)
		var misses []miss
		record := d.Name == string(machine.KindBaseline)
		for i, r := range s.recs {
			st := r.Kind != 0
			ar := l1.Access(r.VA, s.pa[i], s.size[i], st)
			if !ar.Hit {
				l1.Fill(s.pa[i], s.size[i], st, false)
				misses = append(misses, miss{core: int(r.TID), pa: s.pa[i], size: s.size[i], store: st})
			}
			if sf != nil && s.size[i].IsSuper() {
				sf.OnSuperpageTLBFill(r.VA)
			}
			if record {
				mc := cpu.MemCost{Hit: ar.Hit, IsStore: st, Dep: r.Dep, L1Cycles: ar.Cycles,
					SlowL1Cycles: l1.SlowCycles(), ExtraCycles: extra[i]}
				costs = append(costs, mc)
			}
		}
		if record {
			baseMisses = misses
		}
		pre := "core." + d.Name + "."
		ks.add(pre+"access", n, timeKernel(passes, n, func() {
			for i, r := range s.recs {
				l1.Access(r.VA, s.pa[i], s.size[i], r.Kind != 0)
			}
		}))
		if len(misses) > 0 {
			ks.add(pre+"fill", len(misses), timeKernel(passes, len(misses), func() {
				for _, m := range misses {
					l1.Fill(m.pa, m.size, m.store, false)
				}
			}))
		}
		ks.add(pre+"snoop", n, timeKernel(passes, n, func() {
			for _, pa := range s.pa {
				l1.Snoop(pa, core.SnoopDowngrade)
			}
		}))
	}
	if costs == nil {
		return fmt.Errorf("no %q design registered: the coherence and CPU kernels replay its misses", machine.KindBaseline)
	}

	l1s := make([]core.L1Cache, s.nCores)
	for i := range l1s {
		if l1s[i], err = core.NewBaselineVIPT(l1Config()); err != nil {
			return err
		}
	}
	coh, err := coherence.New(coherence.DefaultConfig(1.33), l1s)
	if err != nil {
		return err
	}
	if len(baseMisses) > 0 {
		ks.add("coherence.miss", len(baseMisses), timeKernel(passes, len(baseMisses), func() {
			for _, m := range baseMisses {
				coh.Miss(m.core, m.pa, m.store)
			}
		}))
	}

	for _, kind := range cpuModels {
		model, err := cpu.New(kind)
		if err != nil {
			return err
		}
		ks.add("cpu."+kind+".retire", n, timeKernel(passes, n, func() {
			for i, r := range s.recs {
				model.Retire(int(r.Gap), costs[i])
			}
		}))
	}
	return nil
}

// cellKernels times the layers a cell crosses outside the hot loop: the
// snapshot codec on a warmed master, and the store's report and
// snapshot paths on a scratch store.
func cellKernels(set func(name, unit string, v float64), master *machine.Machine, rep *machine.Report, dir string, passes int) error {
	snap, err := master.Snapshot()
	if err != nil {
		return err
	}
	var data []byte
	marshal := make([]float64, passes)
	unmarshal := make([]float64, passes)
	for i := 0; i < passes; i++ {
		t0 := time.Now()
		if data, err = snap.MarshalBinary(); err != nil {
			return err
		}
		marshal[i] = ms(time.Since(t0))
		t0 = time.Now()
		if _, err := machine.UnmarshalSnapshot(data); err != nil {
			return err
		}
		unmarshal[i] = ms(time.Since(t0))
	}
	set("machine.snapshot_marshal_ms", "ms", median(marshal))
	set("machine.snapshot_unmarshal_ms", "ms", median(unmarshal))
	set("machine.snapshot_kb", "KB", float64(len(data))/1024)

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	const keys = 16
	cfg := master.Config()
	var put, get, putSnap, deepest []float64
	for p := 0; p < passes; p++ {
		st, err := store.Open(filepath.Join(dir, fmt.Sprint(p)))
		if err != nil {
			return err
		}
		prefix := cfg.PrefixHash()
		t0 := time.Now()
		for k := 0; k < keys; k++ {
			c := cfg
			c.Seed += int64(k)
			if err := st.Put(c, rep); err != nil {
				return err
			}
		}
		put = append(put, ms(time.Since(t0))/keys)
		t0 = time.Now()
		for k := 0; k < keys; k++ {
			c := cfg
			c.Seed += int64(k)
			if _, ok := st.Get(c); !ok {
				return fmt.Errorf("store: entry %d written and not read back", k)
			}
		}
		get = append(get, ms(time.Since(t0))/keys)
		t0 = time.Now()
		for k := 0; k < keys; k++ {
			if err := st.PutSnapshot(prefix, k+1, data); err != nil {
				return err
			}
		}
		putSnap = append(putSnap, ms(time.Since(t0))/keys)
		t0 = time.Now()
		for k := 0; k < keys; k++ {
			if _, _, ok := st.DeepestSnapshot(prefix, keys-k); !ok {
				return fmt.Errorf("store: rung %d written and not found", keys-k)
			}
		}
		deepest = append(deepest, ms(time.Since(t0))/keys)
	}
	set("store.put_ms", "ms", median(put))
	set("store.get_ms", "ms", median(get))
	set("store.put_snapshot_ms", "ms", median(putSnap))
	set("store.deepest_snapshot_ms", "ms", median(deepest))
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
