package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlbarber/internal/llm"
	"sqlbarber/internal/server"
	"sqlbarber/internal/workload"
)

// gate is a one-shot release latch for the gated test oracle.
type gate struct {
	ch   chan struct{}
	once sync.Once
}

func newGate() *gate               { return &gate{ch: make(chan struct{})} }
func (g *gate) release()           { g.once.Do(func() { close(g.ch) }) }
func (g *gate) c() <-chan struct{} { return g.ch }

// gateOracle wraps the deterministic simulated oracle so every
// GenerateTemplate call blocks until the gate releases (or the call's
// context is cancelled). It lets tests hold a job "in flight" indefinitely
// without any wall-clock sleeps, so cancellation, drain-under-load, and
// queue-full scenarios are never timing-flaky.
type gateOracle struct {
	llm.Oracle
	g *gate
}

func (o *gateOracle) GenerateTemplate(ctx context.Context, req llm.GenerateRequest) (string, error) {
	select {
	case <-o.g.c():
	case <-ctx.Done():
		return "", ctx.Err()
	}
	return o.Oracle.GenerateTemplate(ctx, req)
}

func (o *gateOracle) Fork(stream int64) llm.Oracle {
	if f, ok := o.Oracle.(llm.Forkable); ok {
		return &gateOracle{Oracle: f.Fork(stream), g: o.g}
	}
	return o
}

// newTestServer builds a service plus an httptest front end and registers
// cleanup that releases any gate and drains the pool, so no test leaks
// worker goroutines or permanently blocked jobs.
func newTestServer(t *testing.T, opts server.Options, g *gate) (*server.Server, *httptest.Server) {
	t.Helper()
	if opts.ArtifactDir == "" {
		opts.ArtifactDir = t.TempDir()
	}
	srv, err := server.New(context.Background(), opts)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		if g != nil {
			g.release()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		srv.Drain(ctx)
		ts.Close()
	})
	return srv, ts
}

// smallJob is a fast request: tiny scale factor and few queries so a full
// pipeline run completes quickly even under -race.
func smallJob(seed int64) map[string]any {
	return map[string]any{
		"dataset":      "tpch",
		"scale_factor": 0.05,
		"seed":         seed,
		"queries":      16,
		"intervals":    4,
		"range_hi":     1500,
	}
}

func submit(t *testing.T, ts *httptest.Server, body any) (int, server.JobStatus, http.Header) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshaling request: %v", err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST /api/v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var st server.JobStatus
	data, _ := io.ReadAll(resp.Body)
	json.Unmarshal(data, &st)
	return resp.StatusCode, st, resp.Header
}

func getStatus(t *testing.T, ts *httptest.Server, id string) server.JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET status: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status %s = %d", id, resp.StatusCode)
	}
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	return st
}

// waitFor polls pred until it holds; the deadline only bounds a hung test.
func waitFor(t *testing.T, desc string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", desc)
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) server.JobStatus {
	t.Helper()
	var st server.JobStatus
	waitFor(t, "job "+id+" to finish", func() bool {
		st = getStatus(t, ts, id)
		return server.State(st.State).Terminal()
	})
	return st
}

func getBody(t *testing.T, ts *httptest.Server, path string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	return resp.StatusCode, resp.Header, data
}

func metricValue(t *testing.T, ts *httptest.Server, metric string) string {
	t.Helper()
	code, _, data := getBody(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, metric+" ") {
			return strings.TrimPrefix(line, metric+" ")
		}
	}
	return ""
}

func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, server.Options{Workers: 1, QueueDepth: 4}, nil)

	code, st, _ := submit(t, ts, smallJob(3))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	if st.ID == "" || st.State == "" {
		t.Fatalf("submit returned incomplete status: %+v", st)
	}

	final := waitTerminal(t, ts, st.ID)
	if final.State != string(server.StateDone) {
		t.Fatalf("job finished as %q (error %q), want done", final.State, final.Error)
	}
	if final.Queries == 0 || final.Templates == 0 || final.ResultURL == "" {
		t.Fatalf("final status missing run summary: %+v", final)
	}

	code, hdr, body := getBody(t, ts, final.ResultURL)
	if code != http.StatusOK {
		t.Fatalf("GET result = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("result content type = %q", ct)
	}
	queries, err := workload.ReadSQL(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("parsing artifact: %v", err)
	}
	if len(queries) != final.Queries {
		t.Fatalf("artifact holds %d queries, status says %d", len(queries), final.Queries)
	}

	// The SSE stream of a finished job replays history and terminates.
	code, _, events := getBody(t, ts, "/api/v1/jobs/"+st.ID+"/events")
	if code != http.StatusOK {
		t.Fatalf("GET events = %d", code)
	}
	for _, want := range []string{"event: state", `"state":"queued"`, `"state":"running"`, "event: done"} {
		if !strings.Contains(string(events), want) {
			t.Fatalf("SSE stream missing %q:\n%s", want, events)
		}
	}

	// List and health views.
	code, _, list := getBody(t, ts, "/api/v1/jobs")
	if code != http.StatusOK || !strings.Contains(string(list), st.ID) {
		t.Fatalf("GET /api/v1/jobs = %d, body %s", code, list)
	}
	code, _, health := getBody(t, ts, "/healthz")
	if code != http.StatusOK || !strings.Contains(string(health), `"status": "ok"`) {
		t.Fatalf("GET /healthz = %d, body %s", code, health)
	}

	// Adopted-by-reference counters surface on /metrics.
	if v := metricValue(t, ts, "sqlbarber_server_jobs_submitted_total"); v != "1" {
		t.Fatalf("server_jobs_submitted_total = %q, want 1", v)
	}
	if v := metricValue(t, ts, "sqlbarber_server_jobs_completed_total"); v != "1" {
		t.Fatalf("server_jobs_completed_total = %q, want 1", v)
	}
}

func TestJSONFormatJob(t *testing.T) {
	_, ts := newTestServer(t, server.Options{Workers: 1, QueueDepth: 4}, nil)
	req := smallJob(5)
	req["format"] = "json"
	code, st, _ := submit(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	final := waitTerminal(t, ts, st.ID)
	if final.State != string(server.StateDone) {
		t.Fatalf("job finished as %q (error %q)", final.State, final.Error)
	}
	code, hdr, body := getBody(t, ts, final.ResultURL)
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("GET result = %d, content type %q", code, hdr.Get("Content-Type"))
	}
	m, err := workload.ReadJSON(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("parsing manifest: %v", err)
	}
	if len(m.Queries) != final.Queries {
		t.Fatalf("manifest holds %d queries, status says %d", len(m.Queries), final.Queries)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, server.Options{Workers: 1, QueueDepth: 4}, nil)
	for name, body := range map[string]map[string]any{
		"bad dataset":        {"dataset": "oracle11g"},
		"bad cost kind":      {"cost_kind": "joules"},
		"bad distribution":   {"distribution": "zipf"},
		"bad format":         {"format": "parquet"},
		"bad parallel":       {"parallel": 9000},
		"bad sf":             {"scale_factor": 50},
		"bad specs":          {"specs": json.RawMessage(`{"not":"a list"}`)},
		"bad policy":         {"resilience": "retry=banana"},
		"removed policy key": {"resilience": "hedge=1ns"},
	} {
		code, _, _ := submit(t, ts, body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: submit = %d, want 400", name, code)
		}
	}
	// Unknown endpoints and jobs.
	for _, path := range []string{"/api/v1/jobs/nope", "/api/v1/jobs/nope/result", "/api/v1/jobs/nope/events"} {
		if code, _, _ := getBody(t, ts, path); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, code)
		}
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs/nope/cancel", "application/json", nil)
	if err != nil {
		t.Fatalf("POST cancel: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown job = %d, want 404", resp.StatusCode)
	}
	if v := metricValue(t, ts, "sqlbarber_server_jobs_submitted_total"); v != "0" {
		t.Fatalf("rejected submits counted as submitted: %q", v)
	}
}

// TestPoolSizesByteIdentical extends the pipeline's determinism contract to
// the service boundary: the same job specs submitted to pools of 1, 2, and 8
// workers must produce byte-identical artifacts, regardless of how jobs
// interleave across workers.
func TestPoolSizesByteIdentical(t *testing.T) {
	seeds := []int64{11, 12, 13}
	artifacts := make(map[int][]map[string][]byte, 3) // pool → per-seed artifact
	for _, pool := range []int{1, 2, 8} {
		_, ts := newTestServer(t, server.Options{Workers: pool, QueueDepth: 16}, nil)
		ids := make(map[string]string, len(seeds)) // job ID → seed key
		for _, seed := range seeds {
			code, st, _ := submit(t, ts, smallJob(seed))
			if code != http.StatusAccepted {
				t.Fatalf("pool %d seed %d: submit = %d", pool, seed, code)
			}
			ids[st.ID] = fmt.Sprintf("seed-%d", seed)
		}
		got := make(map[string][]byte, len(seeds))
		for id, key := range ids {
			final := waitTerminal(t, ts, id)
			if final.State != string(server.StateDone) {
				t.Fatalf("pool %d %s: finished as %q (error %q)", pool, key, final.State, final.Error)
			}
			code, _, body := getBody(t, ts, final.ResultURL)
			if code != http.StatusOK || len(body) == 0 {
				t.Fatalf("pool %d %s: GET result = %d (%d bytes)", pool, key, code, len(body))
			}
			got[key] = body
		}
		artifacts[pool] = append(artifacts[pool], got)
	}
	base := artifacts[1][0]
	for _, pool := range []int{2, 8} {
		for key, body := range artifacts[pool][0] {
			if !bytes.Equal(body, base[key]) {
				t.Errorf("pool %d %s: artifact differs from pool 1 (%d vs %d bytes)",
					pool, key, len(body), len(base[key]))
			}
		}
	}
}

func TestCancelMidRunReturnsPartial(t *testing.T) {
	g := newGate()
	opts := server.Options{
		Workers:    1,
		QueueDepth: 4,
		Oracle: func(seed int64) llm.Oracle {
			return &gateOracle{Oracle: llm.NewSim(llm.SimOptions{Seed: seed}), g: g}
		},
	}
	_, ts := newTestServer(t, opts, g)

	_, st, _ := submit(t, ts, smallJob(7))
	waitFor(t, "job to start running", func() bool {
		return getStatus(t, ts, st.ID).State == string(server.StateRunning)
	})

	resp, err := http.Post(ts.URL+"/api/v1/jobs/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatalf("POST cancel: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel = %d, want 202", resp.StatusCode)
	}

	final := waitTerminal(t, ts, st.ID)
	if final.State != string(server.StateCancelled) {
		t.Fatalf("job finished as %q, want cancelled", final.State)
	}
	if !final.Partial || final.CancelledStage == "" {
		t.Fatalf("cancelled job not marked partial: %+v", final)
	}
	// The partial-workload payload is still downloadable.
	code, _, body := getBody(t, ts, "/api/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("GET result of cancelled job = %d, want 200", code)
	}
	if _, err := workload.ReadSQL(bytes.NewReader(body)); err != nil {
		t.Fatalf("partial artifact unparseable: %v", err)
	}
	if v := metricValue(t, ts, "sqlbarber_server_jobs_cancelled_total"); v != "1" {
		t.Fatalf("server_jobs_cancelled_total = %q, want 1", v)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	g := newGate()
	opts := server.Options{
		Workers:    1,
		QueueDepth: 4,
		Oracle: func(seed int64) llm.Oracle {
			return &gateOracle{Oracle: llm.NewSim(llm.SimOptions{Seed: seed}), g: g}
		},
	}
	_, ts := newTestServer(t, opts, g)

	_, a, _ := submit(t, ts, smallJob(8))
	waitFor(t, "first job to occupy the worker", func() bool {
		return getStatus(t, ts, a.ID).State == string(server.StateRunning)
	})
	_, b, _ := submit(t, ts, smallJob(9))

	resp, err := http.Post(ts.URL+"/api/v1/jobs/"+b.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatalf("POST cancel: %v", err)
	}
	resp.Body.Close()
	bSt := getStatus(t, ts, b.ID)
	if bSt.State != string(server.StateCancelled) {
		t.Fatalf("queued job after cancel = %q, want cancelled immediately", bSt.State)
	}
	if code, _, _ := getBody(t, ts, "/api/v1/jobs/"+b.ID+"/result"); code != http.StatusConflict {
		t.Fatalf("result of never-run job = %d, want 409", code)
	}

	g.release()
	if final := waitTerminal(t, ts, a.ID); final.State != string(server.StateDone) {
		t.Fatalf("first job finished as %q (error %q)", final.State, final.Error)
	}
	if v := metricValue(t, ts, "sqlbarber_server_jobs_cancelled_total"); v != "1" {
		t.Fatalf("server_jobs_cancelled_total = %q, want 1", v)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	g := newGate()
	opts := server.Options{
		Workers:    1,
		QueueDepth: 2,
		RetryAfter: 3 * time.Second,
		Oracle: func(seed int64) llm.Oracle {
			return &gateOracle{Oracle: llm.NewSim(llm.SimOptions{Seed: seed}), g: g}
		},
	}
	_, ts := newTestServer(t, opts, g)

	_, a, _ := submit(t, ts, smallJob(20))
	waitFor(t, "first job to occupy the worker", func() bool {
		return getStatus(t, ts, a.ID).State == string(server.StateRunning)
	})
	var accepted []string
	for _, seed := range []int64{21, 22} {
		code, st, _ := submit(t, ts, smallJob(seed))
		if code != http.StatusAccepted {
			t.Fatalf("queued submit seed %d = %d, want 202", seed, code)
		}
		accepted = append(accepted, st.ID)
	}

	code, _, hdr := submit(t, ts, smallJob(23))
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit = %d, want 429", code)
	}
	if hdr.Get("Retry-After") != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", hdr.Get("Retry-After"))
	}

	g.release()
	for _, id := range append([]string{a.ID}, accepted...) {
		if final := waitTerminal(t, ts, id); final.State != string(server.StateDone) {
			t.Fatalf("job %s finished as %q (error %q)", id, final.State, final.Error)
		}
	}
	if v := metricValue(t, ts, "sqlbarber_server_jobs_rejected_total"); v != "1" {
		t.Fatalf("server_jobs_rejected_total = %q, want 1", v)
	}
	if v := metricValue(t, ts, "sqlbarber_server_jobs_completed_total"); v != "3" {
		t.Fatalf("server_jobs_completed_total = %q, want 3", v)
	}
}

// TestDrainUnderLoad: with four accepted jobs on a two-worker pool, a drain
// must reject new submits immediately, let every accepted job run to
// completion, and lose none of their artifacts.
func TestDrainUnderLoad(t *testing.T) {
	g := newGate()
	opts := server.Options{
		Workers:    2,
		QueueDepth: 8,
		Oracle: func(seed int64) llm.Oracle {
			return &gateOracle{Oracle: llm.NewSim(llm.SimOptions{Seed: seed}), g: g}
		},
	}
	srv, ts := newTestServer(t, opts, g)

	var ids []string
	for _, seed := range []int64{31, 32, 33, 34} {
		code, st, _ := submit(t, ts, smallJob(seed))
		if code != http.StatusAccepted {
			t.Fatalf("submit seed %d = %d", seed, code)
		}
		ids = append(ids, st.ID)
	}
	waitFor(t, "both workers busy", func() bool {
		running := 0
		for _, id := range ids {
			if getStatus(t, ts, id).State == string(server.StateRunning) {
				running++
			}
		}
		return running == 2
	})

	drained := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	defer wg.Wait()

	waitFor(t, "drain to begin", func() bool {
		_, _, health := getBody(t, ts, "/healthz")
		return strings.Contains(string(health), "draining")
	})
	code, _, hdr := submit(t, ts, smallJob(99))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatalf("503 during drain missing Retry-After")
	}

	g.release()
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, id := range ids {
		final := getStatus(t, ts, id)
		if final.State != string(server.StateDone) {
			t.Fatalf("job %s after drain = %q (error %q), want done", id, final.State, final.Error)
		}
		if code, _, body := getBody(t, ts, final.ResultURL); code != http.StatusOK || len(body) == 0 {
			t.Fatalf("job %s artifact lost after drain: %d (%d bytes)", id, code, len(body))
		}
	}
	if v := metricValue(t, ts, "sqlbarber_server_jobs_completed_total"); v != "4" {
		t.Fatalf("server_jobs_completed_total = %q, want 4", v)
	}
}

// TestDrainTimeoutCheckpointsPartials: when the drain deadline expires with a
// job still blocked, the job is cancelled through the normal path and its
// partial artifact is checkpointed before Drain returns.
func TestDrainTimeoutCheckpointsPartials(t *testing.T) {
	g := newGate() // never released until cleanup
	opts := server.Options{
		Workers:    1,
		QueueDepth: 4,
		Oracle: func(seed int64) llm.Oracle {
			return &gateOracle{Oracle: llm.NewSim(llm.SimOptions{Seed: seed}), g: g}
		},
	}
	srv, ts := newTestServer(t, opts, g)

	_, st, _ := submit(t, ts, smallJob(41))
	waitFor(t, "job to start running", func() bool {
		return getStatus(t, ts, st.ID).State == string(server.StateRunning)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err == nil {
		t.Fatalf("Drain with a stuck job returned nil, want deadline error")
	}
	final := getStatus(t, ts, st.ID)
	if final.State != string(server.StateCancelled) || !final.Partial {
		t.Fatalf("stuck job after forced drain = %+v, want cancelled+partial", final)
	}
	if code, _, _ := getBody(t, ts, "/api/v1/jobs/"+st.ID+"/result"); code != http.StatusOK {
		t.Fatalf("partial artifact after forced drain = %d, want 200", code)
	}
}

// TestResilienceFaultsDontChangeArtifact reuses the PR 8 contract at the
// service boundary: a job running under a fault-injecting resilience policy
// (with a fake clock so backoffs are free) must produce the same artifact as
// the same job without any policy.
func TestResilienceFaultsDontChangeArtifact(t *testing.T) {
	run := func(opts server.Options, req map[string]any) []byte {
		t.Helper()
		_, ts := newTestServer(t, opts, nil)
		code, st, _ := submit(t, ts, req)
		if code != http.StatusAccepted {
			t.Fatalf("submit = %d", code)
		}
		final := waitTerminal(t, ts, st.ID)
		if final.State != string(server.StateDone) {
			t.Fatalf("job finished as %q (error %q)", final.State, final.Error)
		}
		_, _, body := getBody(t, ts, final.ResultURL)
		return body
	}
	plain := run(server.Options{Workers: 1, QueueDepth: 4}, smallJob(51))
	faulty := smallJob(51)
	faulty["resilience"] = "retry=4,backoff=5ms,jitter=0.3,fault=0.2,faultattempts=2,faultseed=17"
	withFaults := run(server.Options{
		Workers:         1,
		QueueDepth:      4,
		ResilienceClock: llm.NewFakeClock(),
	}, faulty)
	if !bytes.Equal(plain, withFaults) {
		t.Fatalf("fault-injected artifact differs from fault-free artifact (%d vs %d bytes)",
			len(withFaults), len(plain))
	}
}
