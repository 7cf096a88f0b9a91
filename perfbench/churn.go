package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"seesaw/internal/cluster"
	"seesaw/internal/machine"
	"seesaw/internal/runner"
	"seesaw/internal/service"
	"seesaw/internal/sim"
	"seesaw/internal/store"
	"seesaw/internal/workload"
)

// churnRunner drives cell-churn: cycles of a cold pass (fresh store,
// every warmup computed, rungs and reports written) and a warm pass
// (service restarted on the same store: resubmitted cells are answered
// from the store, new design points resume from a rung).
type churnRunner struct {
	seed        int64
	cold, fresh []churnCell
	ck          *checker
	scratch     string
	dirs        int

	// Counters summed over every stack the run brought up.
	storeHits, rungHits, rungRefsSkipped, cellsFresh atomic.Uint64

	// Per-pass span links between a client's cell and the worker's run
	// of it (tracing only), keyed by the cell's canonical config key.
	linkMu sync.Mutex
	links  map[string]*cellLink
}

type cellLink struct {
	clientSpan int
	cell       string
}

// stack is one in-process deployment: store, worker, coordinator and a
// client, wired over loopback HTTP.
type stack struct {
	svc    *service.Server
	wsrv   *httptest.Server
	coord  *cluster.Coordinator
	csrv   *httptest.Server
	client *cluster.Client
	ladder *runner.LadderStats
}

var quiet = log.New(io.Discard, "", 0)

func newChurnRunner(seed int64, ck *checker, scratch string) *churnRunner {
	cold, fresh := churnCells(seed)
	return &churnRunner{seed: seed, cold: cold, fresh: fresh, ck: ck, scratch: scratch}
}

// serviceProbe is a churn runner over the given cells. The hot
// workloads use one in their traced run, so that the service and
// cluster spans and the store and ladder counters have samples there
// too.
func serviceProbe(seed int64, cold, fresh []churnCell, ck *checker, scratch string) *churnRunner {
	return &churnRunner{seed: seed, cold: cold, fresh: fresh, ck: ck, scratch: scratch}
}

func (c *churnRunner) newDir() (string, error) {
	c.dirs++
	dir := filepath.Join(c.scratch, fmt.Sprintf("store-%d", c.dirs))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// up brings a stack up on the store at dir. The worker runs cells
// through the snapshot ladder over that store (the same function the
// service wires by default), wrapped so a traced run sees the worker's
// share of each cell.
func (c *churnRunner) up(tr *tracer, dir string) (*stack, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	ladder, stats := runner.LadderRun(st, churnRungEvery)
	run := func(ctx context.Context, cfg sim.Config) (*sim.Report, error) {
		c.cellsFresh.Add(1)
		if tr == nil {
			return ladder(ctx, cfg)
		}
		t0 := time.Now()
		rep, err := ladder(ctx, cfg)
		c.linkWorker(tr, cfg, t0, time.Now())
		return rep, err
	}
	svc := service.New(service.Config{Store: st, Run: run, Logger: quiet})
	wsrv := httptest.NewServer(svc.Handler())
	coord := cluster.New(cluster.Config{
		Store:   st,
		Workers: []string{wsrv.Listener.Addr().String()},
		Seed:    c.seed,
		Logger:  quiet,
	})
	csrv := httptest.NewServer(coord.Handler())
	return &stack{svc: svc, wsrv: wsrv, coord: coord, csrv: csrv,
		client: cluster.NewClient(csrv.URL), ladder: stats}, nil
}

// down drains and stops a stack, folding its counters into the run's.
func (c *churnRunner) down(s *stack) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.coord.Drain(ctx) // every job is terminal when a pass returns; the error is only a deadline
	s.csrv.Close()
	s.coord.Close()
	_ = s.svc.Drain(ctx)
	s.wsrv.Close()
	s.svc.Close()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	c.storeHits.Add(s.coord.Counters().StoreHits)
	lc := s.ladder.Counters()
	c.rungHits.Add(lc.RungHits)
	c.rungRefsSkipped.Add(lc.ResumedRefs)
}

// setup times one stack bring-up on a fresh store, including one small
// priming cell through the whole path, and tears it down untimed.
func (c *churnRunner) setup(tr *tracer) (wall, cpu time.Duration, err error) {
	dir, err := c.newDir()
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	t0 := now()
	root := tr.start("setup", 0, "")
	s, err := c.up(tr, dir)
	if err != nil {
		return 0, 0, err
	}
	prime := churnCell{Name: "prime", Spec: service.CellSpec{Workload: churnTraces[0], Refs: 2000, Seed: simSeed(c.seed)}}
	rep, err := c.submit(tr, root, s, prime)
	tr.finish(root)
	wall, cpu = t0.since()
	c.down(s)
	if err == nil && rep == nil {
		err = fmt.Errorf("priming cell returned no report")
	}
	return wall, cpu, err
}

// loop runs cold/warm cycles until the deadline, and at least one.
func (c *churnRunner) loop(tr *tracer, until time.Time, s *sample) error {
	mw := openMemWindow()
	defer mw.close(s)
	for first := true; first || time.Now().Before(until); first = false {
		if err := c.cycle(tr, s); err != nil {
			return err
		}
	}
	return nil
}

// cycle runs the cold pass on a fresh store, then the warm pass on a
// stack restarted over the same store.
func (c *churnRunner) cycle(tr *tracer, s *sample) error {
	dir, err := c.newDir()
	if err != nil {
		return err
	}
	for i, cells := range [][]churnCell{c.cold, warmOrder(c.cold, c.fresh)} {
		stk, err := c.up(tr, dir)
		if err != nil {
			return err
		}
		runtime.GC() // start every pass from a collected heap, not from the previous pass's GC debt
		t0 := now()
		c.pass(tr, stk, cells, i == 1, s)
		wall, cpu := t0.since()
		c.down(stk)
		s.wall += wall
		s.cpu += cpu
		if i == 0 {
			s.addColdPass(wall, cpu)
		} else {
			s.addWarmPass(wall, cpu)
		}
	}
	return os.RemoveAll(dir)
}

// warmOrder alternates the new design points with resubmissions of the
// cold pass's cells, so a rung resume is never queued behind another.
func warmOrder(cold, fresh []churnCell) []churnCell {
	out := make([]churnCell, 0, len(cold)+len(fresh))
	for i := 0; i < max(len(cold), len(fresh)); i++ {
		if i < len(fresh) {
			out = append(out, fresh[i])
		}
		if i < len(cold) {
			out = append(out, cold[i])
		}
	}
	return out
}

// pass sends every cell through the stack from one closed-loop client:
// it submits the next cell once the previous one's report is back.
func (c *churnRunner) pass(tr *tracer, stk *stack, cells []churnCell, warm bool, s *sample) {
	if tr != nil {
		c.linkMu.Lock()
		c.links = make(map[string]*cellLink)
		c.linkMu.Unlock()
	}
	for _, cell := range cells {
		root := tr.start("cell", 0, cell.Name)
		t0 := now()
		rep, err := c.submit(tr, root, stk, cell)
		wall, cpu := t0.since()
		tr.finish(root)
		if err != nil {
			c.ck.failOp("%s: %v", cell.Name, err)
			continue
		}
		kind := cell.Name
		if warm && slices.ContainsFunc(c.cold, func(x churnCell) bool { return x.Name == cell.Name }) {
			kind += " (store hit)"
		}
		s.addCell(cell.Name, kind, wall, cpu, cell.Spec.Refs, rep)
		c.ck.check(cell.Name, rep, nil)
	}
}

// submit sends one single-cell job and waits for its report: Submit,
// then the SSE stream until the job is terminal, then the status with
// results.
func (c *churnRunner) submit(tr *tracer, root int, stk *stack, cell churnCell) (*machine.Report, error) {
	ctx := context.Background()
	if tr != nil {
		if cfg, err := cell.Spec.Config(); err == nil {
			if key, ok := cfg.CanonicalKey(); ok {
				c.linkMu.Lock()
				if c.links != nil {
					c.links[key] = &cellLink{clientSpan: root, cell: cell.Name}
				}
				c.linkMu.Unlock()
			}
		}
	}
	id := tr.start("service.submit", root, cell.Name)
	st, err := stk.client.Submit(ctx, service.JobRequest{Cells: []service.CellSpec{cell.Spec}})
	tr.finish(id)
	if err != nil {
		return nil, err
	}
	id = tr.start("cluster.stream", root, cell.Name)
	err = stk.client.Stream(ctx, st.ID, func(service.Event) {})
	tr.finish(id)
	if err != nil {
		return nil, err
	}
	id = tr.start("cluster.status", root, cell.Name)
	st, err = stk.client.Status(ctx, st.ID, true)
	tr.finish(id)
	if err != nil {
		return nil, err
	}
	if st.State != service.StateDone || len(st.Results) != 1 {
		return nil, fmt.Errorf("job %s ended %s with %d results (%s)", st.ID, st.State, len(st.Results), st.Error)
	}
	res := st.Results[0]
	if res.Status != "done" || res.Report == nil {
		return nil, fmt.Errorf("cell %s: %s", res.Status, res.Error)
	}
	return res.Report, nil
}

// linkWorker records the worker's run of a cell as a child of the
// client span that submitted it.
func (c *churnRunner) linkWorker(tr *tracer, cfg sim.Config, start, end time.Time) {
	key, ok := cfg.CanonicalKey()
	c.linkMu.Lock()
	var l *cellLink
	if ok && c.links != nil {
		l = c.links[key]
	}
	parent, cell := 0, ""
	if l != nil {
		parent, cell = l.clientSpan, l.cell
	}
	c.linkMu.Unlock()
	tr.record("service.cell", parent, cell, start, end)
}

func (c *churnRunner) kernelInputs() []kernelTrace {
	var out []kernelTrace
	for _, tr := range churnTraces {
		p, err := workload.ByName(tr)
		if err != nil {
			continue // churnCells names only built-in profiles
		}
		out = append(out, kernelTrace{Profile: p, Seed: simSeed(c.seed), Memhog: churnMemhog})
	}
	return out
}

// probe gives cell-churn its machine.* spans. The worker's machine
// calls happen inside the service, out of the benchmark's sight, so the
// traced run builds and warms the first signature's master in-process
// and forks, measures and reports every cold design point from it.
func (c *churnRunner) probe(tr *tracer) error {
	cfg, err := c.cold[0].Spec.Config()
	if err != nil {
		return err
	}
	root := tr.start("probe", 0, c.cold[0].Name)
	defer tr.finish(root)
	id := tr.start("machine.build", root, c.cold[0].Name)
	m, err := machine.Build(cfg)
	tr.finish(id)
	if err != nil {
		return err
	}
	id = tr.start("machine.warmup", root, c.cold[0].Name)
	err = m.Warmup(context.Background())
	tr.finish(id)
	if err != nil {
		return err
	}
	for _, cell := range c.cold {
		pc, err := cell.Spec.Config()
		if err != nil {
			return err
		}
		if pc.WarmupSignature() != cfg.WarmupSignature() {
			continue
		}
		id := tr.start("machine.fork", root, cell.Name)
		f, err := m.Fork(pc)
		tr.finish(id)
		if err != nil {
			return err
		}
		rep, err := measureReport(tr, root, cell.Name, f)
		c.ck.check(cell.Name, rep, err)
	}
	return nil
}

// kernelMaster warms the first cold cell's machine: a fragmented,
// memhog-0.6 master like the rungs the ladder writes.
func (c *churnRunner) kernelMaster() (*machine.Machine, error) {
	cfg, err := c.cold[0].Spec.Config()
	if err != nil {
		return nil, err
	}
	m, err := machine.Build(cfg)
	if err != nil {
		return nil, err
	}
	return m, m.Warmup(context.Background())
}

func (c *churnRunner) counts(out map[string]float64) {
	out["count.store_hits"] = float64(c.storeHits.Load())
	out["count.rung_hits"] = float64(c.rungHits.Load())
	out["count.rung_refs_skipped"] = float64(c.rungRefsSkipped.Load())
	out["count.cells_fresh"] = float64(c.cellsFresh.Load())
}
