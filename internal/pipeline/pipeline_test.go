package pipeline

import (
	"context"
	"runtime"
	"strconv"
	"testing"
	"time"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/generator"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/spec"
	"sqlbarber/internal/stats"
)

func smallSpecs() []spec.Spec {
	return []spec.Spec{
		{NumJoins: spec.Int(0), NumPredicates: spec.Int(2)},
		{NumJoins: spec.Int(1), NumPredicates: spec.Int(2)},
		{NumJoins: spec.Int(1), NumPredicates: spec.Int(1), GroupBy: spec.Bool(true), NumAggregations: spec.Int(1)},
		{NumJoins: spec.Int(2), NumPredicates: spec.Int(2)},
	}
}

// smallPipeline builds the small TPC-H cardinality task most pipeline tests
// share, over the given oracle and with any extra options.
func smallPipeline(t *testing.T, seed int64, oracle llm.Oracle, opts ...Option) *Pipeline {
	t.Helper()
	p, err := New(engine.OpenTPCH(seed, 0.05), oracle, smallSpecs(), stats.Uniform(0, 1500, 4, 40),
		append([]Option{WithSeed(seed), WithCostKind(engine.Cardinality)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPipelineStageTimings checks the staged decomposition is observable: a
// full run reports one timing entry per stage, in execution order, ending
// with the unconditional assemble stage.
func TestPipelineStageTimings(t *testing.T) {
	res, err := smallPipeline(t, 5, llm.NewSim(llm.SimOptions{Seed: 5})).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("uncancelled run marked partial (stage %q)", res.CancelledStage)
	}
	want := []string{"generate", "profile", "refine-search", "assemble"}
	if len(res.StageTimings) != len(want) {
		t.Fatalf("stage timings: %+v, want %v", res.StageTimings, want)
	}
	for i, st := range res.StageTimings {
		if st.Stage != want[i] {
			t.Fatalf("stage %d = %q, want %q", i, st.Stage, want[i])
		}
		if st.Elapsed < 0 {
			t.Fatalf("negative elapsed for %q", st.Stage)
		}
	}
	if len(res.Workload) == 0 {
		t.Fatal("empty workload from full run")
	}
}

// TestProfileStageSweepsEveryTemplate checks that the profile stage gives
// every template with placeholders the full per-template LHS budget (§5.1),
// read from the probe count each profile span records. Seed 21 generates a
// template whose cost does not vary over its slot domain; it gets the full
// sweep too, never a single probe.
func TestProfileStageSweepsEveryTemplate(t *testing.T) {
	col := obs.NewCollector()
	target := stats.Uniform(0, 1200, 4, 30)
	p, err := New(engine.OpenTPCH(21, 0.05), llm.NewSim(llm.SimOptions{Seed: 21}), smallSpecs(), target,
		WithSeed(21), WithCostKind(engine.Cardinality), WithObs(col))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	valid := generator.ValidResults(res.GenResults)
	budget := min(max(int(0.15*float64(target.Total())/float64(len(valid))), 4), 64)
	slots := map[string]int{}
	for _, tmpl := range valid {
		slots[strconv.Itoa(tmpl.ID)] = len(tmpl.Placeholders())
	}

	attr := func(e obs.Event, key string) string {
		for _, a := range e.Attrs {
			if a.Key == key {
				return a.Value
			}
		}
		return ""
	}
	var stage int64
	template := map[int64]string{} // profile span -> template ID
	swept := 0
	for _, e := range col.Events() {
		switch {
		case e.Kind == obs.KindSpanStart && e.Name == "stage:profile":
			stage = e.Span
		case e.Kind == obs.KindSpanStart && e.Name == "profile" && e.Parent == stage:
			template[e.Span] = attr(e, "template")
		case e.Kind == obs.KindSpanEnd && e.Name == "profile" && e.Parent == stage:
			id := template[e.Span]
			if slots[id] == 0 {
				continue
			}
			swept++
			if got := attr(e, "probes"); got != strconv.Itoa(budget) {
				t.Errorf("template %s (%d placeholders) profiled with %s probes, want the full budget %d", id, slots[id], got, budget)
			}
		}
	}
	if swept == 0 {
		t.Fatal("no template with placeholders was profiled")
	}
}

// TestPipelineFailsWhenNoTemplates asserts a run whose specs no template can
// satisfy fails with an error instead of returning an empty workload.
func TestPipelineFailsWhenNoTemplates(t *testing.T) {
	p, err := New(engine.OpenTPCH(1, 0.05), llm.NewSim(llm.Perfect(1)),
		[]spec.Spec{{NumJoins: spec.Int(30)}}, // impossible
		stats.Uniform(0, 100, 2, 4), WithSeed(1), WithCostKind(engine.Cardinality))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background()); err == nil {
		t.Fatal("no-valid-template case must error")
	}
}

// TestPipelineCancelReturnsPartial cancels mid-generation (the simulated
// oracle sleeps per call, so the cut lands inside the generate stage) and
// checks the contract: no error, Partial set, the cancelling stage named,
// a valid (possibly empty) Result, and a prompt return.
func TestPipelineCancelReturnsPartial(t *testing.T) {
	p := smallPipeline(t, 7, llm.NewSim(llm.SimOptions{Seed: 7, Latency: 20 * time.Millisecond}))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	before := runtime.NumGoroutine()
	start := time.Now()
	res, err := p.Run(ctx)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("cancelled run must return a partial result, got error: %v", err)
	}
	if !res.Partial {
		t.Fatal("cancelled run not marked partial")
	}
	if res.CancelledStage == "" {
		t.Fatal("partial result must name the cancelled stage")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %s to unwind", elapsed)
	}
	last := res.StageTimings[len(res.StageTimings)-1]
	if last.Stage != "assemble" {
		t.Fatalf("assemble must run even on cancel; final stage was %q", last.Stage)
	}
	// Workers must all have drained: allow the runtime a moment to reap.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak after cancel: %d before, %d after", before, after)
	}
}

// TestPipelinePreCancelled runs with an already-dead context: every stage
// must be skipped-or-cut, yet assembly still returns a well-formed Result.
func TestPipelinePreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := smallPipeline(t, 9, llm.NewSim(llm.SimOptions{Seed: 9})).Run(ctx)
	if err != nil {
		t.Fatalf("pre-cancelled run: %v", err)
	}
	if !res.Partial || res.CancelledStage != "generate" {
		t.Fatalf("expected cancellation in the generate stage, got partial=%v stage=%q", res.Partial, res.CancelledStage)
	}
	if len(res.Workload) != 0 {
		t.Fatalf("no work could have happened, yet workload has %d queries", len(res.Workload))
	}
	if res.DBCalls != 0 {
		t.Fatalf("pre-cancelled run consumed %d DBMS calls", res.DBCalls)
	}
}
