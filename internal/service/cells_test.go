package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"seesaw/internal/sim"
)

// runCellStream POSTs one coordinator-style cell and consumes the SSE
// response, returning the heartbeat count and the terminal result.
func runCellStream(t *testing.T, url string, req CellRunRequest) (int, CellRunResult) {
	t.Helper()
	return streamCell(t, url, req, nil)
}

// streamCell is runCellStream that also calls onHeartbeat, if set, with
// the running count after each heartbeat it reads.
func streamCell(t *testing.T, url string, req CellRunRequest, onHeartbeat func(n int)) (int, CellRunResult) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/cells/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cells/run status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("cells/run content type %q", ct)
	}
	heartbeats := 0
	var res CellRunResult
	event := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data := line[len("data: "):]
			switch event {
			case "heartbeat":
				var hb struct {
					LeaseID string `json:"lease_id"`
				}
				if err := json.Unmarshal([]byte(data), &hb); err != nil {
					t.Fatalf("bad heartbeat %q: %v", data, err)
				}
				if hb.LeaseID != req.LeaseID {
					t.Fatalf("heartbeat lease %q, want %q", hb.LeaseID, req.LeaseID)
				}
				heartbeats++
				if onHeartbeat != nil {
					onHeartbeat(heartbeats)
				}
			case "result":
				if err := json.Unmarshal([]byte(data), &res); err != nil {
					t.Fatalf("bad result %q: %v", data, err)
				}
				return heartbeats, res
			}
		}
	}
	t.Fatal("stream ended without a result event")
	return 0, res
}

// heldRun returns a run function that holds the cell until release is
// closed, so the test decides how many heartbeats fire before it ends.
func heldRun(release <-chan struct{}) func(context.Context, sim.Config) (*sim.Report, error) {
	return func(ctx context.Context, cfg sim.Config) (*sim.Report, error) {
		select {
		case <-release:
			return &sim.Report{SchemaVersion: sim.SchemaVersion, Design: "fake", Workload: cfg.Workload.Name}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(time.Minute):
			return nil, errors.New("cell never released")
		}
	}
}

// TestCellRunHeartbeatsAndResult: a dispatched cell streams periodic
// lease-renewing heartbeats while it runs, then a terminal result
// carrying the report, and the drain gate returns to idle as soon as
// the result has been read.
func TestCellRunHeartbeatsAndResult(t *testing.T) {
	release := make(chan struct{})
	s, ts, runs := newTestServer(t, Config{QueueDepth: 4, Workers: 2, Run: heldRun(release)})

	cell := CellSpec{Workload: "redis", Refs: 1000, Seed: 7, MemMB: 256}
	hb, res := streamCell(t, ts.URL, CellRunRequest{Cell: cell, LeaseID: "lease-1", HeartbeatMS: 20}, func(n int) {
		if n == 2 {
			close(release) // the cell ends only after two heartbeats
		}
	})
	if hb < 2 {
		t.Errorf("saw %d heartbeats before the result at 20ms cadence, want >=2", hb)
	}
	if res.LeaseID != "lease-1" || res.Error != "" || res.Report == nil {
		t.Fatalf("result %+v, want lease-1, no error, a report", res)
	}
	if res.Report.Workload != "redis" {
		t.Errorf("report workload %q", res.Report.Workload)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("executed %d cells, want 1", got)
	}

	// Identical re-dispatch is answered by the shared store read-through:
	// no second simulation, and the totals account for the hit.
	_, res2 := runCellStream(t, ts.URL, CellRunRequest{Cell: cell, LeaseID: "lease-2"})
	if res2.Error != "" || res2.Report == nil {
		t.Fatalf("store-hit result %+v", res2)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("re-dispatch executed %d extra cells, want 0", got-1)
	}
	s.mu.Lock()
	running, totals := s.cellsRunning, s.cellTotals
	s.mu.Unlock()
	if running != 0 {
		t.Errorf("cells_running %d after both streams finished, want 0", running)
	}
	if totals.Runs != 1 || totals.StoreHits != 1 || totals.Submitted != 2 {
		t.Errorf("cell totals %+v, want runs=1 store_hits=1 submitted=2", totals)
	}
}

// TestCellRunFailure: a cell whose simulation panics still terminates
// the stream with a result event, carrying the error string instead of
// a report, and the failure is folded into the server totals.
func TestCellRunFailure(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{QueueDepth: 4, Workers: 1,
		Run: func(ctx context.Context, cfg sim.Config) (*sim.Report, error) {
			panic("boom")
		}})
	_, res := runCellStream(t, ts.URL, CellRunRequest{Cell: CellSpec{Workload: "redis", Refs: 1000, MemMB: 256}, LeaseID: "l"})
	if res.Report != nil || !strings.Contains(res.Error, "boom") {
		t.Fatalf("result %+v, want nil report and a boom error", res)
	}
	s.mu.Lock()
	failures := s.cellTotals.Failures
	s.mu.Unlock()
	if failures != 1 {
		t.Errorf("cell totals record %d failures, want 1", failures)
	}
}

// TestCellRunBadRequests: malformed JSON and unmappable specs are
// rejected with 400 before any stream starts; a draining server refuses
// new cells with 503.
func TestCellRunBadRequests(t *testing.T) {
	s, ts, runs := newTestServer(t, Config{QueueDepth: 4, Workers: 1})
	for _, tc := range []struct {
		name, body string
	}{
		{"bad JSON", "{not json"},
		{"missing workload", `{"cell":{"refs":1000}}`},
		{"unknown cache", `{"cell":{"workload":"redis","refs":1000,"cache":"vivt"}}`},
	} {
		resp, err := http.Post(ts.URL+"/v1/cells/run", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/cells/run", "application/json",
		strings.NewReader(`{"cell":{"workload":"redis","refs":1000}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining server: status %d, want 503", resp.StatusCode)
	}
	if runs.Load() != 0 {
		t.Errorf("rejected requests executed %d cells", runs.Load())
	}
}

// TestCellRunClientDisconnect: a coordinator abandoning the stream
// (lease expired, job canceled) cancels the in-flight simulation and
// releases the drain gate — while a Drain issued mid-cell waits for
// exactly that unwind before declaring the server idle.
func TestCellRunClientDisconnect(t *testing.T) {
	var canceled atomic.Bool
	s, ts, _ := newTestServer(t, Config{QueueDepth: 4, Workers: 1,
		Run: func(ctx context.Context, cfg sim.Config) (*sim.Report, error) {
			<-ctx.Done()
			canceled.Store(true)
			return nil, ctx.Err()
		}})

	body, _ := json.Marshal(CellRunRequest{Cell: CellSpec{Workload: "redis", Refs: 1000, MemMB: 256}, LeaseID: "l", HeartbeatMS: 10})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/cells/run", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Read the first heartbeat so the cell is known to be in flight.
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatal(err)
	}

	// Drain must not report idle while the dispatched cell is running.
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v while a dispatched cell was running", err)
	case <-time.After(100 * time.Millisecond):
	}

	cancel()
	if err := <-drained; err != nil {
		t.Fatalf("drain after disconnect: %v", err)
	}
	if !canceled.Load() {
		t.Error("abandoned cell's context was never canceled")
	}
	s.mu.Lock()
	running := s.cellsRunning
	s.mu.Unlock()
	if running != 0 {
		t.Errorf("cells_running %d after disconnect, want 0", running)
	}
}
