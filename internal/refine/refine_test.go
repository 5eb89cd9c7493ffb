package refine

import (
	"context"
	"testing"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/profiler"
	"sqlbarber/internal/spec"
	"sqlbarber/internal/sqltemplate"
	"sqlbarber/internal/stats"
	"sqlbarber/internal/workload"
)

func setup(t testing.TB) (*engine.DB, *profiler.Profiler) {
	t.Helper()
	db := engine.OpenTPCH(1, 0.2)
	return db, &profiler.Profiler{DB: db, Kind: engine.PlanCost, Seed: 1}
}

func profiled(t *testing.T, p *profiler.Profiler, sql string, s spec.Spec, id int) *workload.TemplateState {
	t.Helper()
	tm := sqltemplate.MustParse(sql)
	tm.ID = id
	prof, err := p.Profile(context.Background(), tm, 8)
	if err != nil {
		t.Fatalf("profile %q: %v", sql, err)
	}
	return &workload.TemplateState{Profile: prof, Spec: s}
}

func TestRefinerFillsUncoveredIntervals(t *testing.T) {
	db, p := setup(t)
	_ = db
	s := spec.Spec{NumJoins: spec.Int(0), NumPredicates: spec.Int(1)}
	// One small-table template: plan costs stay tiny, leaving the upper
	// intervals of the target uncovered.
	seed := profiled(t, p, "SELECT n_nationkey FROM nation WHERE n_nationkey > {p_1}", s, 1)
	target := stats.Uniform(0, 800, 4, 40)
	r := &Refiner{Oracle: llm.NewSim(llm.Perfect(2)), Prof: p}
	out, st, err := r.Run(context.Background(), []*workload.TemplateState{seed}, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) <= 1 {
		t.Fatalf("no templates accepted (generated %d)", st.Generated)
	}
	before := workload.CountsOf([]*workload.TemplateState{seed}, target.Intervals)
	after := workload.CountsOf(out, target.Intervals)
	improved := false
	for j := 1; j < len(after); j++ {
		if after[j] > before[j] {
			improved = true
		}
	}
	if !improved {
		t.Fatalf("refinement did not improve upper-interval coverage: %v -> %v", before, after)
	}
	if st.Iterations == 0 || st.Generated == 0 {
		t.Fatalf("stats not recorded: %+v", st)
	}
}

func TestRefinerStopsWhenCovered(t *testing.T) {
	_, p := setup(t)
	s := spec.Spec{NumJoins: spec.Int(0), NumPredicates: spec.Int(1)}
	// Wide-range template covering a matching small target.
	seed := profiled(t, p, "SELECT o_orderkey FROM orders WHERE o_orderkey <= {p_1}", s, 1)
	costs := seed.Profile.Costs()
	lo, hi := costs[0], costs[0]
	for _, c := range costs {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	target := stats.Uniform(lo, hi+1, 2, 8)
	// With tau=0.2 and 4 per interval, one probe per interval suffices.
	r := &Refiner{Oracle: llm.NewSim(llm.Perfect(3)), Prof: p}
	out, st, err := r.Run(context.Background(), []*workload.TemplateState{seed}, target)
	if err != nil {
		t.Fatal(err)
	}
	if st.Generated > 8 {
		t.Fatalf("refiner over-generated on a covered target: %+v", st)
	}
	if len(out) < 1 {
		t.Fatal("seed template lost")
	}
}

func TestPruneDropsOutOfRangeTemplates(t *testing.T) {
	_, p := setup(t)
	s := spec.Spec{}
	inRange := profiled(t, p, "SELECT n_nationkey FROM nation WHERE n_nationkey > {p_1}", s, 1)
	big := profiled(t, p, "SELECT l_orderkey FROM lineitem AS l JOIN orders AS o ON l.l_orderkey = o.o_orderkey JOIN customer AS c ON o.o_custkey = c.c_custkey WHERE l.l_quantity > {p_1}", s, 2)
	target := stats.Uniform(0, 10, 2, 10) // only tiny costs qualify
	kept := Prune([]*workload.TemplateState{inRange, big}, target)
	for _, k := range kept {
		if k.Profile.Template.ID == 2 {
			t.Fatal("out-of-range template survived pruning")
		}
	}
	if len(kept) == 0 {
		t.Fatal("in-range template pruned")
	}
}

func TestPruneNeverDropsEverything(t *testing.T) {
	_, p := setup(t)
	s := spec.Spec{}
	big := profiled(t, p, "SELECT l_orderkey FROM lineitem WHERE l_quantity > {p_1}", s, 1)
	target := stats.Uniform(1e9, 2e9, 2, 10)
	kept := Prune([]*workload.TemplateState{big}, target)
	if len(kept) != 1 {
		t.Fatal("prune must keep at least one template")
	}
}

// TestPhase1OnlyCutsPhase2 checks the Phase1Only ablation reaches Algorithm
// 2: on a target that drives refinement into phase 2, the switch leaves
// phase 2 a single iteration.
func TestPhase1OnlyCutsPhase2(t *testing.T) {
	_, p := setup(t)
	s := spec.Spec{NumJoins: spec.Int(0), NumPredicates: spec.Int(1)}
	run := func(phase1Only bool) Stats {
		seed := profiled(t, p, "SELECT n_nationkey FROM nation WHERE n_nationkey > {p_1}", s, 1)
		r := &Refiner{Oracle: llm.NewSim(llm.Perfect(2)), Prof: p, Phase1Only: phase1Only}
		_, st, err := r.Run(context.Background(), []*workload.TemplateState{seed}, stats.Uniform(0, 800, 4, 40))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	full, cut := run(false), run(true)
	if full.Iterations <= k1+1 {
		t.Fatalf("full run never reached a second phase-2 iteration: %+v", full)
	}
	if cut.Iterations > k1+1 || cut.Iterations >= full.Iterations {
		t.Fatalf("Phase1Only ran %d iterations (full run %d), want at most %d", cut.Iterations, full.Iterations, k1+1)
	}
}
