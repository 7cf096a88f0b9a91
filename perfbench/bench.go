package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"seesaw/internal/machine"
)

// golden holds the SHA-256 of every cell's report JSON, per workload,
// per seed class, per cell name. Regenerate it with --regen-golden after
// a change that is meant to alter simulated results.
//
//go:embed golden.json
var goldenJSON []byte

type goldenTable map[string]map[string]map[string]string

func loadGolden() (goldenTable, error) {
	var g goldenTable
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// digest is the SHA-256 of a report's JSON encoding, the form the
// service and the store carry it in.
func digest(rep *machine.Report) (string, error) {
	b, err := json.Marshal(rep)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// stamp is a point in wall-clock and process CPU time.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{time.Now(), cpuTime()} }

// since returns the wall and CPU time elapsed from a.
func (a stamp) since() (wall, cpu time.Duration) {
	b := now()
	return b.wall.Sub(a.wall), b.cpu - a.cpu
}

// sample accumulates one timed measurement phase: its cells, passes,
// reports and runtime counters. One cell is in flight at a time, so the
// process CPU time spent during a cell is that cell's cost.
type sample struct {
	cellWallMS, cellCPUMS []float64            // every timed cell
	kindCPUMS             map[string][]float64 // cell CPU ms by kind of cell
	coldWall, coldCPU     []float64            // seconds per cold pass
	warmWall, warmCPU     []float64            // seconds per warm pass
	measuredRefs          int64                // measured-phase refs of every timed cell
	wall, cpu             time.Duration

	reports []*machine.Report
	names   []string // cell name of each report
	refs    []int    // measured refs behind each report

	allocBytes uint64
	gcCycles   uint32
}

// addCell records one timed cell. kind names the cell and the path it
// took (on cell-churn the same cell is first computed, then a store
// hit); every round of the workload repeats each kind once.
func (s *sample) addCell(name, kind string, wall, cpu time.Duration, refs int, rep *machine.Report) {
	s.cellWallMS = append(s.cellWallMS, ms(wall))
	s.cellCPUMS = append(s.cellCPUMS, ms(cpu))
	if s.kindCPUMS == nil {
		s.kindCPUMS = make(map[string][]float64)
	}
	s.kindCPUMS[kind] = append(s.kindCPUMS[kind], ms(cpu))
	s.measuredRefs += int64(refs)
	s.reports = append(s.reports, rep)
	s.names = append(s.names, name)
	s.refs = append(s.refs, refs)
}

func (s *sample) addColdPass(wall, cpu time.Duration) {
	s.coldWall = append(s.coldWall, wall.Seconds())
	s.coldCPU = append(s.coldCPU, cpu.Seconds())
}

func (s *sample) addWarmPass(wall, cpu time.Duration) {
	s.warmWall = append(s.warmWall, wall.Seconds())
	s.warmCPU = append(s.warmCPU, cpu.Seconds())
}

// typicalCellCPUMS is the median over kinds of cell of each kind's
// median CPU cost. The pooled median of a round's cells would fall
// between two kinds of cell (two traces on the hot workloads) and swing
// with the extremes of both; each kind's own median does not.
func (s *sample) typicalCellCPUMS() float64 {
	meds := make([]float64, 0, len(s.kindCPUMS))
	for _, xs := range s.kindCPUMS {
		meds = append(meds, median(xs))
	}
	return median(meds)
}

func perSecond(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// memWindow measures allocation and GC activity over a phase.
type memWindow struct{ ms runtime.MemStats }

func openMemWindow() *memWindow {
	w := &memWindow{}
	runtime.ReadMemStats(&w.ms)
	return w
}

func (w *memWindow) close(s *sample) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	s.allocBytes = now.TotalAlloc - w.ms.TotalAlloc
	s.gcCycles = now.NumGC - w.ms.NumGC
}

// cpuTime is the process's user plus system CPU time. Unlike wall time
// it does not grow while the host runs other tenants instead of this
// process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// checker validates every report the benchmark receives against the
// stored digests and counts attempted and failed operations.
type checker struct {
	mu        sync.Mutex
	golden    map[string]string // cell name -> digest, for this workload and seed class
	seen      map[string]string // cell name -> first digest observed this run
	attempted int
	failed    int
	problems  []string
}

func newChecker(golden map[string]string) *checker {
	return &checker{golden: golden, seen: make(map[string]string)}
}

// check records one operation. A cell's report must match its stored
// digest, and every later report of the same cell in this run must
// match the first (so a store hit must repeat the bytes of the cold
// run that wrote it). A cell with no stored digest (a design registered
// after the digests were recorded) is held to the second rule only; on
// the hot workloads its first report is the independent cold run.
func (c *checker) check(cell string, rep *machine.Report, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.fail("%s: %v", cell, err)
		return
	}
	d, err := digest(rep)
	if err != nil {
		c.fail("%s: encode report: %v", cell, err)
		return
	}
	first, seen := c.seen[cell]
	if !seen {
		c.seen[cell] = d
	}
	if want, ok := c.golden[cell]; ok && d != want {
		c.fail("%s: report digest %s, stored digest %s", cell, d[:12], want[:12])
	} else if seen && d != first {
		c.fail("%s: report digest %s, earlier in this run %s", cell, d[:12], first[:12])
	}
}

// failOp counts a failed operation that produced no report to check.
func (c *checker) failOp(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	c.fail(format, args...)
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 10 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// peakRSSMB reads the process's peak resident set from /proc (Linux),
// falling back to the Go runtime's total OS memory elsewhere.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
