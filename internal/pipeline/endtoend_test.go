package pipeline

import (
	"context"
	"testing"
	"time"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/spec"
	"sqlbarber/internal/stats"
)

// endToEndSpecs extends smallSpecs with a nested query and a single-predicate
// scan, so a full run exercises every template shape the generator builds.
func endToEndSpecs() []spec.Spec {
	return append(smallSpecs(),
		spec.Spec{NumJoins: spec.Int(0), NumPredicates: spec.Int(2), NestedQuery: spec.Bool(true)},
		spec.Spec{NumJoins: spec.Int(0), NumPredicates: spec.Int(1)},
	)
}

// runEndToEnd builds and runs one pipeline, failing the test on any error.
func runEndToEnd(t *testing.T, db *engine.DB, seed int64, specs []spec.Spec, target *stats.TargetDistribution, opts ...Option) *Result {
	t.Helper()
	p, err := New(db, llm.NewSim(llm.SimOptions{Seed: seed}), specs, target,
		append([]Option{WithSeed(seed)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestGenerateEndToEndCardinality(t *testing.T) {
	target := stats.Uniform(0, 3000, 6, 120)
	res := runEndToEnd(t, engine.OpenTPCH(7, 0.1), 7, endToEndSpecs(), target, WithCostKind(engine.Cardinality))
	if len(res.Workload) == 0 {
		t.Fatal("empty workload")
	}
	t.Logf("workload=%d distance=%.1f templates=%d dbcalls=%d elapsed=%s",
		len(res.Workload), res.Distance, len(res.Templates), res.DBCalls, res.Elapsed)
	if res.Distance > 500 {
		t.Errorf("distance %.1f too large; pipeline is not converging", res.Distance)
	}
	if got := len(res.Workload); got < int(float64(target.Total())*0.8) {
		t.Errorf("workload has %d queries, want >= 80%% of %d", got, target.Total())
	}
	// Every query must respect its recorded cost's interval membership.
	for _, q := range res.Workload {
		if target.Intervals.Index(q.Cost) < 0 {
			t.Fatalf("workload query cost %.1f outside target range", q.Cost)
		}
	}
}

func TestGenerateEndToEndPlanCost(t *testing.T) {
	res := runEndToEnd(t, engine.OpenIMDB(11, 0.2), 11, endToEndSpecs(),
		stats.Normal(0, 500, 5, 100, 250, 120), WithCostKind(engine.PlanCost))
	t.Logf("workload=%d distance=%.1f templates=%d dbcalls=%d",
		len(res.Workload), res.Distance, len(res.Templates), res.DBCalls)
	if len(res.Workload) == 0 {
		t.Fatal("empty workload")
	}
}

// TestProgressCallbackInvoked drives a progress callback the way the CLI's
// -v does, through obs.OnEvent, and checks it sees non-decreasing elapsed
// times and a trajectory that ends at the result's distance.
func TestProgressCallbackInvoked(t *testing.T) {
	calls := 0
	var lastElapsed time.Duration
	sink := obs.OnEvent(obs.Nop, func(e obs.Event) {
		if e.Kind != obs.KindProgress {
			return
		}
		calls++
		if e.Dur < lastElapsed {
			t.Errorf("elapsed went backwards: %v after %v", e.Dur, lastElapsed)
		}
		lastElapsed = e.Dur
	})
	res := runEndToEnd(t, engine.OpenTPCH(5, 0.05), 5, endToEndSpecs()[:3],
		stats.Uniform(0, 1500, 5, 50), WithCostKind(engine.Cardinality), WithObs(sink))
	if calls == 0 {
		t.Fatal("progress callback never invoked")
	}
	if len(res.Trajectory) < calls {
		t.Fatalf("trajectory (%d) shorter than callbacks (%d)", len(res.Trajectory), calls)
	}
	// The final trajectory point must match the result.
	last := res.Trajectory[len(res.Trajectory)-1]
	if last.Distance != res.Distance {
		t.Fatalf("final trajectory distance %v != result %v", last.Distance, res.Distance)
	}
}

func TestGenerateWithRowsProcessedCost(t *testing.T) {
	db := engine.OpenTPCH(9, 0.05)
	res := runEndToEnd(t, db, 9, smallSpecs(), stats.Uniform(0, 6000, 4, 40), WithCostKind(engine.RowsProcessed))
	if len(res.Workload) == 0 {
		t.Fatal("no workload under rows-processed cost")
	}
	// Execution-based cost kinds must also be deterministic: replaying a
	// query gives the same cost.
	q := res.Workload[0]
	again, err := db.Cost(context.Background(), q.SQL, engine.RowsProcessed)
	if err != nil {
		t.Fatal(err)
	}
	if again != q.Cost {
		t.Fatalf("rows-processed cost not reproducible: %v vs %v", again, q.Cost)
	}
}

func TestTemplatesSatisfySpecsEndToEnd(t *testing.T) {
	db := engine.OpenTPCH(21, 0.05)
	res := runEndToEnd(t, db, 21, endToEndSpecs(), stats.Uniform(0, 1500, 5, 50), WithCostKind(engine.Cardinality))
	for _, st := range res.Templates {
		if ok, viol := st.Spec.Check(st.Profile.Template.Features()); !ok {
			t.Errorf("final template %d violates its spec: %v\n%s",
				st.Profile.Template.ID, viol, st.Profile.Template.SQL())
		}
	}
	// Every workload query must be executable, not just plannable.
	for i, q := range res.Workload {
		if i >= 10 {
			break
		}
		if _, err := db.Execute(q.SQL); err != nil {
			t.Fatalf("workload query does not execute: %v\n%s", err, q.SQL)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() *Result {
		return runEndToEnd(t, engine.OpenTPCH(33, 0.05), 33, smallSpecs(),
			stats.Uniform(0, 1500, 5, 40), WithCostKind(engine.Cardinality))
	}
	a, b := run(), run()
	if len(a.Workload) != len(b.Workload) {
		t.Fatalf("workload sizes differ: %d vs %d", len(a.Workload), len(b.Workload))
	}
	for i := range a.Workload {
		if a.Workload[i].SQL != b.Workload[i].SQL || a.Workload[i].Cost != b.Workload[i].Cost {
			t.Fatalf("workload query %d differs across identical runs", i)
		}
	}
	if a.Distance != b.Distance {
		t.Fatalf("distances differ: %v vs %v", a.Distance, b.Distance)
	}
}

func TestGenerateParallelSearch(t *testing.T) {
	res := runEndToEnd(t, engine.OpenTPCH(12, 0.05), 12, endToEndSpecs(), stats.Uniform(0, 1500, 5, 60),
		WithCostKind(engine.Cardinality), WithParallel(4))
	if len(res.Workload) < 40 {
		t.Fatalf("parallel search produced only %d queries", len(res.Workload))
	}
	if res.Distance > 200 {
		t.Fatalf("parallel search distance %.1f", res.Distance)
	}
}
