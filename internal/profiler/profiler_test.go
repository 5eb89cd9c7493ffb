package profiler

import (
	"context"
	"testing"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/sqltemplate"
	"sqlbarber/internal/sqltypes"
)

func newProfiler(t testing.TB, kind engine.CostKind) *Profiler {
	t.Helper()
	return &Profiler{
		DB:   engine.OpenTPCH(1, 0.05),
		Kind: kind,
		Seed: 1,
	}
}

func TestProfileBasic(t *testing.T) {
	p := newProfiler(t, engine.Cardinality)
	tm := sqltemplate.MustParse("SELECT o_orderkey FROM orders WHERE o_totalprice > {p_1} AND o_orderdate > {p_2}")
	prof, err := p.Profile(context.Background(), tm, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Obs) != 12 {
		t.Fatalf("got %d observations, want 12", len(prof.Obs))
	}
	if len(prof.Space.Dims) != 2 {
		t.Fatalf("got %d dims", len(prof.Space.Dims))
	}
	costs := prof.Costs()
	varied := false
	for _, c := range costs[1:] {
		if c != costs[0] {
			varied = true
		}
	}
	if !varied {
		t.Fatal("LHS probing produced constant costs — predicate not driving cardinality")
	}
	for _, o := range prof.Obs {
		if o.SQL == "" || len(o.Raw) != 2 {
			t.Fatalf("bad observation: %+v", o)
		}
	}
}

func TestProfileCostsSpanRange(t *testing.T) {
	p := newProfiler(t, engine.Cardinality)
	tm := sqltemplate.MustParse("SELECT o_orderkey FROM orders WHERE o_orderkey <= {p_1}")
	prof, err := p.Profile(context.Background(), tm, 16)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := prof.Costs()[0], prof.Costs()[0]
	for _, c := range prof.Costs() {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	// o_orderkey <= p over 750 rows: LHS should cover a wide cost span.
	if hi-lo < 300 {
		t.Fatalf("cost span [%v, %v] too narrow for space-filling sampling", lo, hi)
	}
}

func TestProfileNoPlaceholders(t *testing.T) {
	p := newProfiler(t, engine.PlanCost)
	tm := sqltemplate.MustParse("SELECT COUNT(*) FROM orders")
	prof, err := p.Profile(context.Background(), tm, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Obs) != 1 {
		t.Fatalf("constant template must yield exactly 1 observation, got %d", len(prof.Obs))
	}
}

func TestProfileBrokenTemplate(t *testing.T) {
	p := newProfiler(t, engine.Cardinality)
	tm := sqltemplate.MustParse("SELECT nosuchcol FROM orders WHERE o_totalprice > {p_1}")
	if _, err := p.Profile(context.Background(), tm, 4); err == nil {
		t.Fatal("unplannable template must error")
	}
}

func TestSearchSpaceIntegerVsFloat(t *testing.T) {
	p := newProfiler(t, engine.Cardinality)
	tm := sqltemplate.MustParse("SELECT l_orderkey FROM lineitem WHERE l_quantity > {p_1} AND l_discount < {p_2}")
	bindings, err := tm.BindPlaceholders(p.DB.Schema())
	if err != nil {
		t.Fatal(err)
	}
	space, err := BuildSearchSpace(tm, bindings)
	if err != nil {
		t.Fatal(err)
	}
	if !space.Dims[0].Param.Integer {
		t.Error("l_quantity (int) must be an integer dimension")
	}
	if space.Dims[1].Param.Integer {
		t.Error("l_discount (float) must be continuous")
	}
	vals := space.ValuesFor([]float64{10, 0.05})
	if vals["p_1"].Kind().String() != "INTEGER" {
		t.Errorf("integer dim value kind: %v", vals["p_1"].Kind())
	}
	// ValuesInto refills a reused map, stale keys included, to exactly
	// what ValuesFor returns, without allocating once the map has grown.
	reused := map[string]sqltypes.Value{"stale": sqltypes.NewInt(1), "p_1": sqltypes.NewInt(99)}
	got := space.ValuesInto(reused, []float64{10, 0.05})
	if len(got) != len(vals) || got["p_1"] != vals["p_1"] || got["p_2"] != vals["p_2"] {
		t.Fatalf("ValuesInto = %v, want %v", got, vals)
	}
	if allocs := testing.AllocsPerRun(20, func() { space.ValuesInto(reused, []float64{12, 0.07}) }); allocs != 0 {
		t.Fatalf("ValuesInto allocates %.0f times into a grown map, want 0", allocs)
	}
}

func TestSearchSpaceCategorical(t *testing.T) {
	p := newProfiler(t, engine.Cardinality)
	tm := sqltemplate.MustParse("SELECT COUNT(*) FROM orders WHERE o_orderstatus = {p_1}")
	bindings, err := tm.BindPlaceholders(p.DB.Schema())
	if err != nil {
		t.Fatal(err)
	}
	space, err := BuildSearchSpace(tm, bindings)
	if err != nil {
		t.Fatal(err)
	}
	d := space.Dims[0]
	if d.Options == nil || len(d.Options) < 2 {
		t.Fatalf("string column must be categorical: %+v", d)
	}
	v := d.Value(0)
	if v.Str() == "" {
		t.Fatal("categorical value must be one of the observed strings")
	}
	// Out-of-range raw values clamp.
	if d.Value(-5).IsNull() || d.Value(99).IsNull() {
		t.Fatal("categorical clamping broken")
	}
}

func TestInstantiateThroughSpace(t *testing.T) {
	p := newProfiler(t, engine.Cardinality)
	tm := sqltemplate.MustParse("SELECT o_orderkey FROM orders WHERE o_totalprice > {p_1}")
	bindings, _ := tm.BindPlaceholders(p.DB.Schema())
	space, _ := BuildSearchSpace(tm, bindings)
	sql, err := space.Instantiate([]float64{123.5})
	if err != nil {
		t.Fatal(err)
	}
	if sql == tm.SQL() {
		t.Fatal("instantiation did not substitute")
	}
	if _, err := p.DB.Explain(sql); err != nil {
		t.Fatalf("instantiated SQL must plan: %v", err)
	}
}

func TestIndependentSamplingMode(t *testing.T) {
	p := newProfiler(t, engine.Cardinality)
	p.IndependentSampling = true
	tm := sqltemplate.MustParse("SELECT o_orderkey FROM orders WHERE o_totalprice > {p_1}")
	prof, err := p.Profile(context.Background(), tm, 8)
	if err != nil || len(prof.Obs) != 8 {
		t.Fatalf("independent sampling profile: %v", err)
	}
}

// TestProfileCostsEachQueryOnce profiles a one-placeholder categorical
// template with more sample points than the column has values: every point
// keeps its observation and its query's cost, but the DBMS is asked once per
// distinct query.
func TestProfileCostsEachQueryOnce(t *testing.T) {
	tm := sqltemplate.MustParse("SELECT o_orderkey FROM orders WHERE o_orderstatus = {p_1}")
	for _, kind := range []engine.CostKind{engine.Cardinality, engine.RowsProcessed} {
		p := newProfiler(t, kind)
		collector := obs.NewCollector()
		prof, err := p.Profile(obs.NewContext(context.Background(), collector), tm, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(prof.Obs) != 10 {
			t.Fatalf("%v: %d observations, want 10", kind, len(prof.Obs))
		}
		distinct := map[string]bool{}
		for _, o := range prof.Obs {
			distinct[o.SQL] = true
		}
		if len(distinct) >= 10 {
			t.Fatalf("%v: %d distinct queries in 10 points; the test needs repeats", kind, len(distinct))
		}
		calls := p.DB.ExplainCalls() + p.DB.ExecCalls()
		deduped := collector.Snapshot().Counter(obs.MProfileDedupedProbes)
		if calls != int64(len(distinct)) || deduped != int64(10-len(distinct)) {
			t.Fatalf("%v: %d DBMS calls, %d deduped for %d distinct queries", kind, calls, deduped, len(distinct))
		}
		ref := engine.OpenTPCH(1, 0.05)
		for _, o := range prof.Obs {
			want, err := ref.Cost(context.Background(), o.SQL, kind)
			if err != nil {
				t.Fatal(err)
			}
			if o.Cost != want {
				t.Fatalf("%v: %s observed at %v, a DBMS call gives %v", kind, o.SQL, o.Cost, want)
			}
		}
	}
}
