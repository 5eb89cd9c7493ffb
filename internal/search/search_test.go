package search

import (
	"context"
	"math/rand"
	"testing"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/profiler"
	"sqlbarber/internal/spec"
	"sqlbarber/internal/sqltemplate"
	"sqlbarber/internal/stats"
	"sqlbarber/internal/workload"
)

func setup(t testing.TB) []*workload.TemplateState {
	t.Helper()
	db := engine.OpenTPCH(1, 0.1)
	p := &profiler.Profiler{DB: db, Kind: engine.Cardinality, Seed: 1}
	sqls := []string{
		"SELECT o_orderkey FROM orders WHERE o_orderkey <= {p_1}",
		"SELECT l_orderkey FROM lineitem WHERE l_orderkey <= {p_1} AND l_quantity <= {p_2}",
		"SELECT c_custkey FROM customer WHERE c_custkey <= {p_1} AND c_acctbal <= {p_2}",
	}
	var states []*workload.TemplateState
	for i, sql := range sqls {
		tm := sqltemplate.MustParse(sql)
		tm.ID = i + 1
		prof, err := p.Profile(context.Background(), tm, 10)
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, &workload.TemplateState{Profile: prof, Spec: spec.Spec{}})
	}
	return states
}

func TestSearchFillsUniformTarget(t *testing.T) {
	states := setup(t)
	target := stats.Uniform(0, 1500, 5, 50)
	s := &Searcher{Kind: engine.Cardinality, Opts: Options{Seed: 1}}
	queries, st := s.Run(context.Background(), states, target, nil)
	sel := workload.SelectWorkload(queries, target)
	d := workload.Distance(sel, target)
	if d > 50 {
		t.Fatalf("distance %v after search; counts=%v", d, target.Intervals.CountInto(costsOf(sel)))
	}
	if st.Evaluations == 0 || st.Rounds == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestSearchSkipsUnreachableIntervals(t *testing.T) {
	states := setup(t)
	// Cardinality can never exceed table sizes (max 6000 at sf 0.1): the
	// top interval [50k, 100k) is unreachable and must be skipped.
	ivs := stats.SplitRange(0, 100000, 2)
	target := &stats.TargetDistribution{Intervals: ivs, Counts: []int{10, 10}}
	s := &Searcher{Kind: engine.Cardinality, Opts: Options{Seed: 1, MaxRounds: 60}}
	_, st := s.Run(context.Background(), states, target, nil)
	if st.SkippedIntervals == 0 {
		t.Fatalf("unreachable interval not skipped: %+v", st)
	}
}

func TestSearchSeedsCountedIntoDistribution(t *testing.T) {
	states := setup(t)
	target := stats.Uniform(0, 1000, 2, 4)
	seed := []workload.Query{
		{SQL: "s1", Cost: 100}, {SQL: "s2", Cost: 200},
		{SQL: "s3", Cost: 600}, {SQL: "s4", Cost: 700},
	}
	s := &Searcher{Kind: engine.Cardinality, Opts: Options{Seed: 1, MaxRounds: 5}}
	_, st := s.Run(context.Background(), states, target, seed)
	if st.Evaluations > 20 {
		t.Fatalf("target was pre-filled by seeds; search still ran %d evals", st.Evaluations)
	}
}

func TestObjectiveEquation5(t *testing.T) {
	iv := stats.Interval{Lo: 100, Hi: 200}
	if objective(150, iv) != 0 || objective(100, iv) != 0 || objective(200, iv) != 0 {
		t.Fatal("inside interval must be 0")
	}
	below := objective(50, iv) // ratio 50/100 = 0.5 -> 0.5
	if below != 0.5 {
		t.Fatalf("objective(50) = %v, want 0.5", below)
	}
	above := objective(400, iv) // ratio 200/400 = 0.5 -> 0.5
	if above != 0.5 {
		t.Fatalf("objective(400) = %v, want 0.5", above)
	}
	if objective(1000, iv) <= objective(300, iv) {
		t.Fatal("objective must grow with distance")
	}
	// Degenerate zero-bound interval must not divide by zero.
	z := stats.Interval{Lo: 0, Hi: 10}
	if v := objective(20, z); v < 0 || v > 1 {
		t.Fatalf("objective with zero lower bound: %v", v)
	}
}

func TestNaiveSearchWorseOrEqualOnHardTarget(t *testing.T) {
	// BO and naive both run with a tight round cap; BO should fill at least
	// as much of a narrow-interval target.
	run := func(naive bool) float64 {
		states := setup(t)
		target := stats.Uniform(0, 1500, 15, 45)
		s := &Searcher{Kind: engine.Cardinality,
			Opts: Options{Seed: 3, Naive: naive, MaxRounds: 30, MaxBudget: 30}}
		queries, _ := s.Run(context.Background(), states, target, nil)
		sel := workload.SelectWorkload(queries, target)
		return workload.Distance(sel, target)
	}
	boD := run(false)
	naiveD := run(true)
	if boD > naiveD*1.5+20 {
		t.Fatalf("BO (%.1f) much worse than naive (%.1f)", boD, naiveD)
	}
}

func TestWeightedSampleRespectsSize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cands := make([]scoredTemplate, 20)
	for i := range cands {
		cands[i] = scoredTemplate{score: float64(i)}
	}
	out := weightedSample(rng, cands, 5)
	if len(out) != 5 {
		t.Fatalf("sampled %d", len(out))
	}
	small := weightedSample(rng, cands[:3], 5)
	if len(small) != 3 {
		t.Fatalf("small pool sampled %d", len(small))
	}
}

func costsOf(qs []workload.Query) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = q.Cost
	}
	return out
}
