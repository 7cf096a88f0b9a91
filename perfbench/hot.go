package main

import (
	"context"
	"runtime"
	"time"

	"seesaw/internal/machine"
	"seesaw/internal/service"
)

// coldPasses is how many times a hot run computes every cell from
// scratch (Build -> Warmup -> Measure -> Report) before its warm loop.
// The cold reports are an independent path to the same digests (a fork
// at the warmup boundary must equal a cold run), and their wall time is
// cold_pass_s.
const coldPasses = 3

// hotRunner drives one hot workload through the machine API.
type hotRunner struct {
	spec  hotSpec
	seed  int64
	cells []hotCell
	ck    *checker

	masters []*machine.Machine
	scratch string
	svc     *churnRunner // the traced run's service probe
}

func newHotRunner(spec hotSpec, seed int64, ck *checker, scratch string) (*hotRunner, error) {
	cells, err := spec.cells(seed)
	if err != nil {
		return nil, err
	}
	return &hotRunner{spec: spec, seed: seed, cells: cells, ck: ck, scratch: scratch}, nil
}

// setup builds and warms one master per trace; the masters of the last
// call serve the warm loop.
func (h *hotRunner) setup(tr *tracer) (wall, cpu time.Duration, err error) {
	ctx := context.Background()
	start := now()
	root := tr.start("setup", 0, "")
	masters := make([]*machine.Machine, len(h.spec.Traces))
	for ti, trace := range h.spec.Traces {
		cfg, err := h.spec.masterConfig(trace, h.seed)
		if err != nil {
			return 0, 0, err
		}
		id := tr.start("machine.build", root, trace)
		m, err := machine.Build(cfg)
		tr.finish(id)
		if err != nil {
			return 0, 0, err
		}
		id = tr.start("machine.warmup", root, trace)
		err = m.Warmup(ctx)
		tr.finish(id)
		if err != nil {
			return 0, 0, err
		}
		masters[ti] = m
	}
	tr.finish(root)
	wall, cpu = start.since()
	h.masters = masters
	return wall, cpu, nil
}

// loop runs the cold passes, then full rounds of warm cells (every
// trace x design, forked from the masters) until the deadline, and at
// least one. Cells
// run one at a time: each Measure already runs its generator goroutines
// beside the reference loop, so a second cell in flight oversubscribes
// a 2-CPU host.
func (h *hotRunner) loop(tr *tracer, until time.Time, s *sample) error {
	for i := 0; i < coldPasses; i++ {
		runtime.GC() // start every pass from a collected heap, not from the previous one's GC debt
		t0 := now()
		for _, c := range h.cells {
			h.coldCell(tr, c)
		}
		s.addColdPass(t0.since())
	}
	runtime.GC()
	mw := openMemWindow()
	start := now()
	for first := true; first || time.Now().Before(until); first = false {
		t0 := now()
		for _, c := range h.cells {
			h.warmCell(tr, c, s)
		}
		s.addWarmPass(t0.since())
	}
	s.wall, s.cpu = start.since()
	mw.close(s)
	return nil
}

// coldCell computes one cell the way a sweep without shared warmup
// does: its own Build and Warmup, then Measure and Report.
func (h *hotRunner) coldCell(tr *tracer, c hotCell) {
	ctx := context.Background()
	root := tr.start("cold_cell", 0, c.Name)
	rep, err := func() (*machine.Report, error) {
		id := tr.start("machine.build", root, c.Name)
		m, err := machine.Build(c.Config)
		tr.finish(id)
		if err != nil {
			return nil, err
		}
		id = tr.start("machine.warmup", root, c.Name)
		err = m.Warmup(ctx)
		tr.finish(id)
		if err != nil {
			return nil, err
		}
		return measureReport(tr, root, c.Name, m)
	}()
	tr.finish(root)
	h.ck.check(c.Name, rep, err)
}

// warmCell is one timed cell: Fork from the warmed master, Measure,
// Report. The fork builds caches, TLBs, TFTs and coherence state fresh,
// so the measured phase starts with empty modelled caches.
func (h *hotRunner) warmCell(tr *tracer, c hotCell, s *sample) {
	root := tr.start("cell", 0, c.Name)
	t0 := now()
	rep, err := func() (*machine.Report, error) {
		id := tr.start("machine.fork", root, c.Name)
		m, err := h.masters[c.Trace].Fork(c.Config)
		tr.finish(id)
		if err != nil {
			return nil, err
		}
		return measureReport(tr, root, c.Name, m)
	}()
	wall, cpu := t0.since()
	tr.finish(root)
	if err == nil {
		s.addCell(c.Name, c.Name, wall, cpu, c.Config.Refs, rep)
	}
	id := tr.start("check", root, c.Name)
	h.ck.check(c.Name, rep, err)
	tr.finish(id)
}

func measureReport(tr *tracer, parent int, cell string, m *machine.Machine) (*machine.Report, error) {
	id := tr.start("machine.measure", parent, cell)
	err := m.Measure(context.Background())
	tr.finish(id)
	if err != nil {
		return nil, err
	}
	id = tr.start("machine.report", parent, cell)
	rep, err := m.Report()
	tr.finish(id)
	return rep, err
}

func (h *hotRunner) kernelInputs() []kernelTrace {
	var out []kernelTrace
	for _, m := range h.masters {
		cfg := m.Config()
		out = append(out, kernelTrace{Profile: cfg.Workload, Seed: cfg.Seed, THPOff: cfg.THPOff})
	}
	return out
}

func (h *hotRunner) kernelMaster() (*machine.Machine, error) { return h.masters[0], nil }

// probe sends one short cycle of the workload's traces through the
// service stack (client, coordinator, worker, store, ladder), so the
// service and cluster spans and the store counters have samples. The
// wire spec has no THP switch, so the probe cells run under the
// default OS settings.
func (h *hotRunner) probe(tr *tracer) error {
	var cold, fresh []churnCell
	for _, trace := range h.spec.Traces {
		for i, d := range []string{string(machine.KindBaseline), string(machine.KindSeesaw)} {
			cell := churnCell{
				Name: "probe:" + trace + "/" + d,
				Spec: service.CellSpec{Workload: trace, Cache: d, Refs: churnRefs,
					WarmupRefs: churnWarmupRefs, Seed: simSeed(h.seed)},
			}
			if i == 0 {
				cold = append(cold, cell)
			} else {
				fresh = append(fresh, cell)
			}
		}
	}
	h.svc = serviceProbe(h.seed, cold, fresh, h.ck, h.scratch)
	return h.svc.cycle(tr, &sample{})
}

func (h *hotRunner) counts(out map[string]float64) { h.svc.counts(out) }
