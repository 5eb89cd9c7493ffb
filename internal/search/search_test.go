package search

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/profiler"
	"sqlbarber/internal/spec"
	"sqlbarber/internal/sqltemplate"
	"sqlbarber/internal/sqltypes"
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
	s := &Searcher{Kind: engine.Cardinality, Seed: 1}
	pool := workload.NewPool(target)
	st := s.Run(context.Background(), states, pool)
	sel := pool.Workload()
	d := pool.Distance()
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
	s := &Searcher{Kind: engine.Cardinality, Seed: 1}
	st := s.Run(context.Background(), states, workload.NewPool(target))
	if st.SkippedIntervals == 0 {
		t.Fatalf("unreachable interval not skipped: %+v", st)
	}
}

func TestSearchSeedsCountedIntoDistribution(t *testing.T) {
	states := setup(t)
	target := stats.Uniform(0, 1000, 2, 4)
	pool := workload.NewPool(target)
	for _, q := range []workload.Query{
		{SQL: "s1", Cost: 100}, {SQL: "s2", Cost: 200},
		{SQL: "s3", Cost: 600}, {SQL: "s4", Cost: 700},
	} {
		pool.Add(q)
	}
	s := &Searcher{Kind: engine.Cardinality, Seed: 1}
	st := s.Run(context.Background(), states, pool)
	if st.Evaluations > 20 {
		t.Fatalf("target was pre-filled by seeds; search still ran %d evals", st.Evaluations)
	}
}

// TestObjectiveEquation5 pins Equation (5) over a closed interval [cl, cr].
// At an inner interval's cr this disagrees with stats.Intervals.Index, which
// puts that cost in the next bin. The case below pins the disagreement:
// scoring that cost as a miss moves the bench llm-wait-imdb and
// daemon-mixed workload hashes, so aligning the two changes output.
func TestObjectiveEquation5(t *testing.T) {
	ivs := stats.Intervals{{Lo: 0, Hi: 100}, {Lo: 100, Hi: 200}}
	for _, tc := range []struct {
		c    float64
		j    int
		want float64
	}{
		{150, 1, 0},
		{100, 1, 0},   // Lo is inside
		{200, 1, 0},   // the top interval's Hi: inside, as Index says
		{100, 0, 0},   // an inner Hi: inside, though Index says interval 1
		{50, 1, 0.5},  // ratio 50/100
		{400, 1, 0.5}, // ratio 200/400
		{20, 0, 0},
	} {
		if got := objective(tc.c, ivs[tc.j]); got != tc.want {
			t.Errorf("objective(%v, interval %d) = %v, want %v", tc.c, tc.j, got, tc.want)
		}
	}
	if ivs.Index(100) != 1 || ivs.Index(200) != 1 {
		t.Fatalf("Index(100), Index(200) = %d, %d; want 1, 1", ivs.Index(100), ivs.Index(200))
	}
	iv := ivs[1]
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
	// BO and naive both run at the paper's budgets; BO should fill at least
	// as much of a narrow-interval target.
	run := func(naive bool) float64 {
		states := setup(t)
		target := stats.Uniform(0, 1500, 15, 45)
		s := &Searcher{Kind: engine.Cardinality, Seed: 3, Naive: naive}
		pool := workload.NewPool(target)
		s.Run(context.Background(), states, pool)
		return pool.Distance()
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

// TestUniformTemplatesWidensSample checks the UniformTemplates ablation
// reaches the template sample: with more candidates than the weighted
// sample's ten, taking them all changes the run.
func TestUniformTemplatesWidensSample(t *testing.T) {
	db := engine.OpenTPCH(1, 0.1)
	p := &profiler.Profiler{DB: db, Kind: engine.Cardinality, Seed: 1}
	var sqls []string
	for _, tc := range []string{
		"orders.o_orderkey", "orders.o_custkey", "orders.o_totalprice",
		"lineitem.l_orderkey", "lineitem.l_partkey", "lineitem.l_suppkey", "lineitem.l_extendedprice",
		"customer.c_custkey", "customer.c_acctbal",
		"part.p_partkey", "part.p_retailprice",
		"partsupp.ps_partkey", "partsupp.ps_supplycost", "partsupp.ps_availqty",
	} {
		table, col, _ := strings.Cut(tc, ".")
		sqls = append(sqls, "SELECT "+col+" FROM "+table+" WHERE "+col+" <= {p_1}")
	}
	run := func(uniform bool) string {
		var states []*workload.TemplateState
		for i, sql := range sqls {
			tm := sqltemplate.MustParse(sql)
			tm.ID = i + 1
			prof, err := p.Profile(context.Background(), tm, 10)
			if err != nil {
				t.Fatal(err)
			}
			states = append(states, &workload.TemplateState{Profile: prof})
		}
		s := &Searcher{Kind: engine.Cardinality, Seed: 1, UniformTemplates: uniform}
		pool := workload.NewPool(stats.Uniform(0, 1500, 5, 50))
		st := s.Run(context.Background(), states, pool)
		return signature(states, pool, st)
	}
	if run(false) == run(true) {
		t.Fatal("UniformTemplates had no effect with more than ten candidate templates")
	}
}

// TestSlotProbeAllocationCeiling pins what one search-slot probe allocates
// on setup's three templates, almost all probes memo misses: the SQL text
// (sized once), its literals, the compiled estimate's bindings and the memo
// entry. The binding map is reused and a fractional float binds without a
// failed integer parse. Measured 2, 3 and 5 allocations per probe (4, 6 and
// 12 with a fresh map per probe, a builder grown by doubling and the failed
// parse); each ceiling leaves one allocation or ~20% of headroom.
func TestSlotProbeAllocationCeiling(t *testing.T) {
	ceilings := map[int]float64{1: 3, 2: 4, 3: 6}
	for _, st := range setup(t) {
		space := st.Profile.Space
		boSpace := space.BOSpace()
		iv := stats.Interval{Lo: 100, Hi: 200}
		p := &slotProbe{ctx: context.Background(), kind: engine.Cardinality, prof: st.Profile, iv: iv,
			vals: map[string]sqltypes.Value{}}
		rng := rand.New(rand.NewSource(3))
		const probes = 200
		raws := make([][]float64, probes+1)
		for i := range raws {
			x := make([]float64, len(boSpace))
			for d := range x {
				x[d] = rng.Float64()
			}
			raws[i] = boSpace.Denormalize(x)
		}
		p.res.obs = make([]profiler.Observation, 0, len(raws))
		p.evaluate(raws[0])
		next := 1
		allocs := testing.AllocsPerRun(probes, func() {
			p.evaluate(raws[next%len(raws)])
			next++
		})
		id := st.Profile.Template.ID
		if allocs > ceilings[id] {
			t.Fatalf("template %d: a slot probe allocates %.2f times, ceiling %.0f", id, allocs, ceilings[id])
		}
	}
}
