package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"

	"seesaw/internal/machine"
	"seesaw/internal/sim"
)

// regenGolden recomputes every cell of every workload and seed class on
// the plain cold path (sim.RunContext: Build -> Warmup -> Measure ->
// Report, no forks, no store, no service) and writes their digests.
func regenGolden(path string) error {
	type job struct {
		wl, class, name string
		cfg             machine.Config
	}
	var jobs []job
	for c := int64(0); c < seedClasses; c++ {
		class := fmt.Sprint(c)
		for wl, spec := range hotWorkloads {
			cells, err := spec.cells(c)
			if err != nil {
				return err
			}
			for _, cell := range cells {
				jobs = append(jobs, job{wl, class, cell.Name, cell.Config})
			}
		}
		cold, fresh := churnCells(c)
		for _, cell := range append(cold, fresh...) {
			cfg, err := cell.Spec.Config()
			if err != nil {
				return fmt.Errorf("%s: %w", cell.Name, err)
			}
			jobs = append(jobs, job{"cell-churn", class, cell.Name, cfg})
		}
	}
	g := goldenTable{}
	var mu sync.Mutex
	var firstErr error
	runPool(jobs, runtime.NumCPU(), func(j job) {
		rep, err := sim.RunContext(context.Background(), j.cfg)
		var d string
		if err == nil {
			d, err = digest(rep)
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s/%s/%s: %w", j.wl, j.class, j.name, err)
			}
			return
		}
		if g[j.wl] == nil {
			g[j.wl] = map[string]map[string]string{}
		}
		if g[j.wl][j.class] == nil {
			g[j.wl][j.class] = map[string]string{}
		}
		g[j.wl][j.class][j.name] = d
	})
	if firstErr != nil {
		return firstErr
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("perfbench: wrote %d digests to %s\n", len(jobs), path)
	return nil
}

// boundsFile is the benchmark definition the steadiness mode reads.
const boundsFile = "BENCHMARK.json"

// steady runs a workload n times as child processes, each with another
// seed, and prints every end-to-end metric's median, quartiles and
// spread ((Q3-Q1)/median) against its bound from BENCHMARK.json. An
// empty workload runs every workload in turn.
func steady(wl string, seed int64, seconds, n int) error {
	if n < 2 {
		return fmt.Errorf("--steady needs at least 2 runs")
	}
	raw, err := os.ReadFile(boundsFile)
	if err != nil {
		return err
	}
	var def struct {
		EndToEnd []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("%s: %w", boundsFile, err)
	}
	bounds := make(map[string]float64)
	for _, m := range def.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	wls := []string{wl}
	if wl == "" {
		wls = workloadNames()
	}
	worst := 0.0
	for _, w := range wls {
		vals := make(map[string][]float64)
		for i := 1; i <= n; i++ {
			s := seed + int64(i)
			cmd := exec.Command(exe, "--workload", w, "--seed", fmt.Sprint(s),
				"--seconds", fmt.Sprint(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1]))).Decode(&res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", w, s, err)
			}
			fmt.Printf("steady %s seed %d: correct=%v attempted=%d failed=%d", w, s, res.Correct, res.Attempted, res.Failed)
			for _, k := range sortedKeys(res.Metrics) {
				vals[k] = append(vals[k], res.Metrics[k].Value)
				fmt.Printf(" %s=%.6g", k, res.Metrics[k].Value)
			}
			fmt.Println()
		}
		fmt.Printf("\n%-12s %-14s %12s %12s %12s %12s %8s %8s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound", "ok(<b/3)")
		for _, k := range sortedKeys(vals) {
			q1, q2, q3 := quartiles(vals[k])
			spread := (q3 - q1) / q2
			b := bounds[k]
			ok := spread < b/3
			if k != "setup_s" && b > 0 {
				worst = max(worst, spread/b)
			}
			fmt.Printf("%-12s %-14s %12.6g %12.6g %12.6g %12.4f %8.3f %8v\n", w, k, q2, q1, q3, spread, b, ok)
		}
		fmt.Println()
	}
	fmt.Printf("worst spread/bound over non-setup metrics: %.3f\n", worst)
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runPool runs fn over items on a fixed set of workers and returns when
// every item is done.
func runPool[T any](items []T, workers int, fn func(T)) {
	ch := make(chan T)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range ch {
				fn(it)
			}
		}()
	}
	for _, it := range items {
		ch <- it
	}
	close(ch)
	wg.Wait()
}
