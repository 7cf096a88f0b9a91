// Command perfbench is the repository's benchmark. It drives the
// simulator's public packages (machine, runner, store, service, cluster
// and the per-reference layers) on one named workload, checks every
// report against stored digests, and prints every metric by name with
// its unit; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (host time unless
// marked simulated); with --trace 1 the run records spans around every
// call it makes and adds layer kernels on fixed inputs, and the metrics
// are the per-layer ones. BENCHMARK.json lists both sets and their
// bounds.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload hot-super --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload hot-base --seed 1 --seconds 20 --steady 10
//	bash perfbench/run.sh --regen-golden
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"seesaw/internal/machine"
)

// setupRepeats is how many times a run performs its set-up; setup_s is
// the median.
const setupRepeats = 5

// kernelRefs and kernelPasses size the per-layer kernels: each kernel
// replays kernelRefs references of each of the workload's traces
// kernelPasses times and reports the median pass.
const (
	kernelRefs   = 1 << 15
	kernelPasses = 5
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadRunner is one workload's set-up and timed loop.
type workloadRunner interface {
	// setup performs the workload's set-up once and returns its wall
	// and CPU time.
	setup(tr *tracer) (wall, cpu time.Duration, err error)
	// loop measures until the deadline, adding to s.
	loop(tr *tracer, until time.Time, s *sample) error
	// probe (traced run only) drives, once, the layers the loop does
	// not call from the benchmark, so every span has samples.
	probe(tr *tracer) error
	// kernelInputs names the traces the layer kernels replay.
	kernelInputs() []kernelTrace
	// kernelMaster returns a warmed machine for the snapshot and store
	// kernels.
	kernelMaster() (*machine.Machine, error)
	// counts adds the workload's own counters (trace mode).
	counts(out map[string]float64)
}

func main() { os.Exit(run()) }

func run() int {
	var (
		wl      = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "input seed (selects one of 16 input sets with stored report digests)")
		seconds = flag.Int("seconds", 25, "measured seconds")
		traceOn = flag.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics")
		steadyN = flag.Int("steady", 0, "run the workload this many times (seeds seed+1..seed+N) and print each end-to-end metric's median, quartiles and spread against its bound")
		regen   = flag.Bool("regen-golden", false, "recompute the stored report digests into perfbench/golden.json")
		scratch = flag.String("scratch", filepath.Join(".bench_build", "perfbench-tmp"), "directory for stores and span files")
	)
	flag.Parse()
	switch {
	case *regen:
		return exit(regenGolden(filepath.Join("perfbench", "golden.json")))
	case *steadyN > 0:
		return exit(steady(*wl, *seed, *seconds, *steadyN))
	}
	if !validWorkload(*wl) {
		return exit(fmt.Errorf("unknown workload %q (want one of %s)", *wl, strings.Join(workloadNames(), ", ")))
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		return exit(fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1"))
	}
	res, err := bench(*wl, *seed, *seconds, *traceOn == 1, *scratch)
	if err != nil {
		return exit(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return exit(err)
	}
	fmt.Println(string(line))
	return 0
}

func exit(err error) int {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func validWorkload(name string) bool {
	for _, n := range workloadNames() {
		if n == name {
			return true
		}
	}
	return false
}

// bench runs one workload and assembles its result.
func bench(wl string, seed int64, seconds int, traced bool, scratchRoot string) (*result, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	class := fmt.Sprint(seedClass(seed))
	ck := newChecker(golden[wl][class])
	scratch := filepath.Join(scratchRoot, fmt.Sprint(os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	var w workloadRunner
	if spec, ok := hotWorkloads[wl]; ok {
		h, err := newHotRunner(spec, seed, ck, scratch)
		if err != nil {
			return nil, err
		}
		w = h
	} else {
		w = newChurnRunner(seed, ck, scratch)
	}
	fmt.Printf("perfbench: workload %s, seed %d (input set %s), %ds, trace=%v, GOMAXPROCS=%d, %s\n",
		wl, seed, class, seconds, traced, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Println("perfbench: every measured phase starts with empty modelled caches: warmup is OS-only and each cell's Fork or Build creates caches, TLBs, TFTs and coherence state fresh")

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var setupWall, setupCPU []float64
	for i := 0; i < setupRepeats; i++ {
		wall, cpu, err := w.setup(tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupWall = append(setupWall, wall.Seconds())
		setupCPU = append(setupCPU, cpu.Seconds())
	}

	res := &result{Metrics: make(map[string]metric)}
	dur := time.Duration(seconds) * time.Second
	if !traced {
		s := &sample{}
		if err := w.loop(nil, time.Now().Add(dur), s); err != nil {
			return nil, err
		}
		endToEnd(res, s, setupWall, setupCPU)
	} else {
		// Half the time untraced, half traced: the ratio of the two
		// throughputs is the tracing overhead.
		plain, spanned := &sample{}, &sample{}
		if err := w.loop(nil, time.Now().Add(dur/2), plain); err != nil {
			return nil, err
		}
		if err := w.loop(tr, time.Now().Add(dur/2), spanned); err != nil {
			return nil, err
		}
		if err := perLayer(res, w, tr, plain, spanned, scratch); err != nil {
			return nil, err
		}
		spanFile := filepath.Join(scratchRoot, fmt.Sprintf("spans-%s-seed%d.jsonl", wl, seed))
		if err := tr.write(spanFile); err != nil {
			return nil, err
		}
		fmt.Printf("perfbench: %d spans written to %s\n", len(tr.snapshot()), spanFile)
	}
	res.Attempted, res.Failed = ck.attempted, ck.failed
	res.Correct = ck.failed == 0 && ck.attempted > 0
	for _, p := range ck.problems {
		fmt.Println("perfbench: FAILED", p)
	}
	fmt.Printf("%-34s %14.6f %s (%d of %d operations)\n", "failed_frac", float64(ck.failed)/float64(max(ck.attempted, 1)), "ratio", ck.failed, ck.attempted)
	printMetrics(res.Metrics)
	return res, nil
}

// endToEnd fills the untraced run's metrics. Times are process CPU
// time: on a shared host the wall clock also counts time the hypervisor
// gives to other tenants, which made wall-clock figures spread several
// times wider between runs. The wall-clock equivalents are printed, and
// reported per layer by the traced run.
func endToEnd(res *result, s *sample, setupWall, setupCPU []float64) {
	pct, tv := tail(s.cellCPUMS)
	res.Metrics["refs_per_cpu_s"] = metric{perSecond(s.measuredRefs, s.cpu), "1/s"}
	res.Metrics["cell_cpu_ms_p50"] = metric{s.typicalCellCPUMS(), "ms"}
	res.Metrics["cell_cpu_ms_tail"] = metric{tv, "ms"}
	res.Metrics["cold_pass_cpu_s"] = metric{median(s.coldCPU), "s"}
	res.Metrics["warm_pass_cpu_s"] = metric{median(s.warmCPU), "s"}
	res.Metrics["setup_s"] = metric{median(setupCPU), "s"}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	n := len(s.cellCPUMS)
	fmt.Printf("perfbench: cell_cpu_ms_p50 is the median over %d kinds of cell of each kind's median; cell_cpu_ms_tail is p%d over %d cells (%d beyond it); %d cold and %d warm passes; set-up repeated %d times\n",
		len(s.kindCPUMS), pct, n, n-int(math.Ceil(float64(pct)/100*float64(n))), len(s.coldCPU), len(s.warmCPU), len(setupCPU))
	_, wt := tail(s.cellWallMS)
	fmt.Printf("perfbench: wall clock: %.0f refs/s, cell p50 %.3f ms, p%d %.3f ms, cold pass %.3f s, warm pass %.3f s, set-up %.4f s (CPU share %.2f)\n",
		perSecond(s.measuredRefs, s.wall), median(s.cellWallMS), pct, wt, median(s.coldWall), median(s.warmWall),
		median(setupWall), s.cpu.Seconds()/max(s.wall.Seconds(), 1e-9))
	gain, energy := simGains(s)
	fmt.Printf("perfbench: simulated (unvalidated against hardware, no error figure): SEESAW over baseline VIPT runtime gain %.4f%%, energy saving %.4f%%\n", gain, energy)
}

// perLayer fills the traced run's metrics: span self times, layer
// kernels, exact counts, runtime counters and the tracing overhead.
func perLayer(res *result, w workloadRunner, tr *tracer, plain, spanned *sample, scratch string) error {
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }

	ks := newKernelSet()
	for _, kt := range w.kernelInputs() {
		s, err := buildStream(kt, kernelRefs)
		if err != nil {
			return fmt.Errorf("kernel input %s: %w", kt.Profile.Name, err)
		}
		if err := runLayerKernels(ks, s, kernelPasses); err != nil {
			return err
		}
	}
	for _, name := range ks.order {
		r, _ := ks.get(name)
		set(name+"_ns", "ns", r.NS)
		set(name+"_allocs", "allocs/op", r.Allocs)
	}
	if err := w.probe(tr); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	master, err := w.kernelMaster()
	if err != nil {
		return err
	}
	if len(plain.reports) == 0 {
		return fmt.Errorf("no report to store in the store kernels")
	}
	if err := cellKernels(set, master, plain.reports[0], filepath.Join(scratch, "kstore"), kernelPasses); err != nil {
		return err
	}

	spans := tr.snapshot()
	self := selfTimes(spans)
	for _, name := range []string{"machine.build", "machine.warmup", "machine.fork", "machine.measure",
		"machine.report", "service.submit", "service.cell"} {
		st := self[name]
		v := 0.0
		if st.Count > 0 {
			v = float64(st.SelfNS) / 1e6 / float64(st.Count)
		}
		set(name+"_ms", "ms", v)
		set(name+"_count", "count", float64(st.Count))
	}
	over, n := clusterOverhead(spans)
	set("cluster.overhead_ms", "ms", over)
	set("cluster.overhead_count", "count", float64(n))

	counts := reportCounts(spanned)
	w.counts(counts)
	for k, v := range counts {
		set(k, "count", v)
	}
	refs := float64(plain.measuredRefs)
	_, wt := tail(plain.cellWallMS)
	set("wall.refs_per_s", "1/s", perSecond(plain.measuredRefs, plain.wall))
	set("wall.cell_ms_p50", "ms", median(plain.cellWallMS))
	set("wall.cell_ms_tail", "ms", wt)
	set("wall.cold_pass_s", "s", median(plain.coldWall))
	set("wall.warm_pass_s", "s", median(plain.warmWall))
	set("runtime.alloc_bytes_per_ref", "B", float64(plain.allocBytes)/max(refs, 1))
	set("runtime.gc_cycles", "count", float64(plain.gcCycles))
	gain, energy := simGains(spanned)
	set("sim.runtime_gain_pct", "%", gain)
	set("sim.energy_saving_pct", "%", energy)
	ratio := 0.0
	tp, pp := perSecond(spanned.measuredRefs, spanned.cpu), perSecond(plain.measuredRefs, plain.cpu)
	if pp > 0 {
		ratio = tp / pp
	}
	set("trace.refs_per_cpu_s_ratio", "ratio", ratio)
	fmt.Printf("perfbench: tracing overhead: traced %.0f refs per CPU second against untraced %.0f (ratio %.4f)\n", tp, pp, ratio)
	return nil
}

// clusterOverhead is the mean, over cells the worker ran, of the
// client-observed cell time minus the worker's time on it.
func clusterOverhead(spans []span) (float64, int) {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	total, n := 0.0, 0
	for _, s := range spans {
		if s.Name != "service.cell" || s.Parent == 0 {
			continue
		}
		p := byID[s.Parent]
		total += float64((p.End-p.Start)-(s.End-s.Start)) / 1e6
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return total / float64(n), n
}

// reportCounts derives the exact per-reference counts from the reports:
// the weights that turn a kernel's ns/op into its share of a cell.
func reportCounts(s *sample) map[string]float64 {
	var superFrac, mpki, tftHit float64
	var walks, l1Misses, refs float64
	tftN := 0
	for i, r := range s.reports {
		superFrac += r.SuperRefFraction
		mpki += r.MPKI
		walks += float64(r.TLB.Walks)
		l1Misses += float64(r.L1Misses)
		refs += float64(s.refs[i])
		if r.TFT.Lookups > 0 {
			tftHit += r.TFT.HitRate
			tftN++
		}
	}
	n := float64(max(len(s.reports), 1))
	return map[string]float64{
		"count.super_ref_frac":      superFrac / n,
		"count.l1_mpki":             mpki / n,
		"count.tlb_walks_per_kref":  1000 * walks / max(refs, 1),
		"count.coh_misses_per_kref": 1000 * l1Misses / max(refs, 1),
		"count.tft_hit_rate":        tftHit / float64(max(tftN, 1)),
	}
}

// simGains is SEESAW's simulated runtime gain and energy saving over
// baseline VIPT, as percentages of the geometric-mean ratio over every
// baseline/SEESAW cell pair the run reported.
func simGains(s *sample) (runtimeGain, energySaving float64) {
	first := make(map[string]*machine.Report)
	for i, r := range s.reports {
		if _, ok := first[s.names[i]]; !ok {
			first[s.names[i]] = r
		}
	}
	var cyc, nrg []float64
	for name, base := range first {
		if !strings.Contains(name, string(machine.KindBaseline)) {
			continue
		}
		see, ok := first[strings.Replace(name, string(machine.KindBaseline), string(machine.KindSeesaw), 1)]
		if !ok || base.Cycles == 0 || base.EnergyTotalNJ == 0 {
			continue
		}
		cyc = append(cyc, float64(see.Cycles)/float64(base.Cycles))
		nrg = append(nrg, see.EnergyTotalNJ/base.EnergyTotalNJ)
	}
	if len(cyc) == 0 {
		return 0, 0
	}
	return 100 * (1 - geomean(cyc)), 100 * (1 - geomean(nrg))
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-34s %14.6f %s\n", k, ms[k].Value, ms[k].Unit)
	}
}
