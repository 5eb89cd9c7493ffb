package pipeline

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/stats"
)

// goldenClock is a deterministic collector clock: each read advances exactly
// one millisecond, so span timings depend only on the sequence of
// observations, never on the machine.
func goldenClock() func() time.Time {
	base := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	n := 0
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

// checkGolden compares got against the named testdata file; UPDATE_GOLDEN=1
// rewrites the file instead.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with UPDATE_GOLDEN=1 to create): %v", path, err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from golden (rerun with UPDATE_GOLDEN=1 after verifying the change is intended)\n--- got ---\n%s\n--- want ---\n%s",
			name, clip(got), clip(string(want)))
	}
}

func clip(s string) string {
	const max = 4000
	if len(s) > max {
		return s[:max] + "\n…(clipped)"
	}
	return s
}

// TestObsGoldenTraceAndMetrics runs a seeded mini-pipeline with a fake clock
// and pins both exporters byte-for-byte: the JSONL trace and the Prometheus
// snapshot of a deterministic run must never drift silently.
func TestObsGoldenTraceAndMetrics(t *testing.T) {
	collector := obs.NewCollector(obs.WithClock(goldenClock()))
	p, err := New(
		engine.OpenTPCH(21, 0.05),
		llm.NewSim(llm.SimOptions{Seed: 21}),
		smallSpecs(),
		stats.Uniform(0, 1200, 4, 30),
		WithSeed(21),
		WithCostKind(engine.Cardinality),
		WithObs(collector),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	var trace strings.Builder
	if err := collector.WriteJSONL(&trace); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_trace.jsonl", trace.String())

	var metrics strings.Builder
	if err := collector.WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_metrics.prom", metrics.String())
}

// TestObsCountersMatchSubsystemGetters is the anti-drift regression: the
// collector adopts the exact counter objects the engine and the LLM ledger
// own, so snapshot totals must equal the subsystems' own getters and the
// Result's evaluation count — not approximately, identically.
func TestObsCountersMatchSubsystemGetters(t *testing.T) {
	collector := obs.NewCollector()
	db := engine.OpenTPCH(23, 0.05)
	oracle := llm.NewSim(llm.SimOptions{Seed: 23})
	p, err := New(db, oracle, smallSpecs(), stats.Uniform(0, 1200, 4, 30),
		WithSeed(23), WithCostKind(engine.Cardinality), WithObs(collector))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	snap := collector.Snapshot()
	if got, want := snap.Counter(obs.MDBExplainCalls), db.ExplainCalls(); got != want {
		t.Errorf("%s = %d, DB reports %d", obs.MDBExplainCalls, got, want)
	}
	if got, want := snap.Counter(obs.MDBExecCalls), db.ExecCalls(); got != want {
		t.Errorf("%s = %d, DB reports %d", obs.MDBExecCalls, got, want)
	}
	if got, want := snap.Counter(obs.MDBValidateCalls), db.ValidateCalls(); got != want {
		t.Errorf("%s = %d, DB reports %d", obs.MDBValidateCalls, got, want)
	}
	if got, want := snap.Counter(obs.MDBPreparedProbes), db.PreparedProbes(); got != want {
		t.Errorf("%s = %d, DB reports %d", obs.MDBPreparedProbes, got, want)
	}
	if got, want := snap.Counter(obs.MDBPreparedBatches), db.PreparedBatches(); got != want {
		t.Errorf("%s = %d, DB reports %d", obs.MDBPreparedBatches, got, want)
	}
	if snap.Counter(obs.MDBPreparedProbes) == 0 || snap.Counter(obs.MDBPreparedBatches) == 0 {
		t.Error("a full pipeline run must serve probes through compiled templates")
	}
	if got, want := snap.Counter(obs.MDBSessionsOpened), db.SessionsOpened(); got != want {
		t.Errorf("%s = %d, DB reports %d", obs.MDBSessionsOpened, got, want)
	}
	if got, want := snap.Counter(obs.MDBSessionProbes), db.SessionProbes(); got != want {
		t.Errorf("%s = %d, DB reports %d", obs.MDBSessionProbes, got, want)
	}
	// Result.DBCalls reads the same counters (fresh DB, so no baseline).
	if got, want := res.DBCalls, snap.Counter(obs.MDBExplainCalls)+snap.Counter(obs.MDBExecCalls); got != want {
		t.Errorf("Result.DBCalls = %d, snapshot explain+exec = %d", got, want)
	}
	l := oracle.Ledger()
	if got, want := snap.Counter(obs.MLLMPromptTokens), l.PromptTokens(); got != want {
		t.Errorf("%s = %d, ledger reports %d", obs.MLLMPromptTokens, got, want)
	}
	if got, want := snap.Counter(obs.MLLMCompletionTokens), l.CompletionTokens(); got != want {
		t.Errorf("%s = %d, ledger reports %d", obs.MLLMCompletionTokens, got, want)
	}
	if got, want := snap.Counter(obs.MLLMOracleCalls), l.Calls(); got != want {
		t.Errorf("%s = %d, ledger reports %d", obs.MLLMOracleCalls, got, want)
	}
	// The per-kind call split must sum to the ledger total.
	var kinds int64
	for _, m := range []string{
		obs.MLLMGenerateCalls, obs.MLLMJudgeCalls, obs.MLLMFixSemanticsCalls,
		obs.MLLMFixExecutionCalls, obs.MLLMRefineCalls,
	} {
		kinds += snap.Counter(m)
	}
	if kinds != l.Calls() {
		t.Errorf("per-kind LLM calls sum to %d, ledger reports %d", kinds, l.Calls())
	}
	// Run-level gauges are set at assembly.
	if v, ok := snap.Gauge(obs.GWorkloadQueries); !ok || int(v) != len(res.Workload) {
		t.Errorf("%s = %v,%v; workload has %d queries", obs.GWorkloadQueries, v, ok, len(res.Workload))
	}
	if v, ok := snap.Gauge(obs.GWorkloadDistance); !ok || v != res.Distance {
		t.Errorf("%s = %v,%v; result distance %g", obs.GWorkloadDistance, v, ok, res.Distance)
	}
	if v, ok := snap.Gauge(obs.GLLMCostUSD); !ok || v != l.CostUSD() {
		t.Errorf("%s = %v,%v; ledger cost %g", obs.GLLMCostUSD, v, ok, l.CostUSD())
	}
}

// TestProgressAndObsCompose pins the composition the CLI's -v -report uses:
// a progress callback teed over a collector with obs.OnEvent. The callback
// sees the whole trajectory in order with non-decreasing elapsed times,
// ending at the result's distance; the collector records the same progress
// events; and the tee still passes counter adoption and volatile-histogram
// marking through, so the snapshot matches the subsystems' own getters and
// the oracle latency histogram stays out of the stable snapshot.
func TestProgressAndObsCompose(t *testing.T) {
	collector := obs.NewCollector()
	var mu sync.Mutex
	var dists []float64
	var elapsed []time.Duration
	sink := obs.OnEvent(collector, func(e obs.Event) {
		if e.Kind == obs.KindProgress {
			mu.Lock()
			dists = append(dists, e.Value)
			elapsed = append(elapsed, e.Dur)
			mu.Unlock()
		}
	})
	p := smallPipeline(t, 27, llm.NewSim(llm.SimOptions{Seed: 27}), WithObs(sink),
		WithResilience(ResiliencePolicy{Retry: llm.RetryPolicy{MaxAttempts: 2}}))
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(dists) == 0 {
		t.Fatal("progress callback starved when a collector is attached")
	}
	if len(dists) != len(res.Trajectory) {
		t.Fatalf("callback fired %d times, trajectory has %d points", len(dists), len(res.Trajectory))
	}
	for i, pt := range res.Trajectory {
		if dists[i] != pt.Distance {
			t.Fatalf("sample %d: callback saw %g, trajectory has %g", i, dists[i], pt.Distance)
		}
		if i > 0 && elapsed[i] < elapsed[i-1] {
			t.Fatalf("elapsed went backwards: %v after %v", elapsed[i], elapsed[i-1])
		}
	}
	if last := dists[len(dists)-1]; last != res.Distance {
		t.Fatalf("final progress distance %v != result %v", last, res.Distance)
	}
	var progress int
	for _, e := range collector.Events() {
		if e.Kind == obs.KindProgress {
			progress++
		}
	}
	if progress != len(dists) {
		t.Fatalf("collector saw %d progress events, callback fired %d times", progress, len(dists))
	}
	snap := collector.Snapshot()
	if got, want := snap.Counter(obs.MDBExplainCalls), p.cfg.DB.ExplainCalls(); got == 0 || got != want {
		t.Errorf("%s = %d through the tee, DB reports %d", obs.MDBExplainCalls, got, want)
	}
	if got, want := snap.Counter(obs.MLLMOracleCalls), p.cfg.Oracle.(llm.Metered).Ledger().Calls(); got == 0 || got != want {
		t.Errorf("%s = %d through the tee, ledger reports %d", obs.MLLMOracleCalls, got, want)
	}
	var latency *obs.HistogramPoint
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == obs.HLLMLatencyMS {
			latency = &snap.Histograms[i]
		}
	}
	if latency == nil || latency.Count == 0 || !latency.Volatile {
		t.Errorf("%s through the tee: %+v, want a recorded volatile histogram", obs.HLLMLatencyMS, latency)
	}
}
