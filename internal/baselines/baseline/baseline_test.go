package baseline

import (
	"context"
	"testing"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/sqltemplate"
	"sqlbarber/internal/stats"
)

func seedsAndDB(t testing.TB) (*engine.DB, []*sqltemplate.Template) {
	t.Helper()
	db := engine.OpenTPCH(1, 0.05)
	seeds := []*sqltemplate.Template{
		sqltemplate.MustParse("SELECT o_orderkey FROM orders WHERE o_totalprice > {p_1} AND o_orderdate > {p_2}"),
		sqltemplate.MustParse("SELECT l.l_orderkey FROM lineitem AS l JOIN orders AS o ON l.l_orderkey = o.o_orderkey WHERE l.l_quantity > {p_1}"),
	}
	for i, s := range seeds {
		s.ID = i + 1
	}
	return db, seeds
}

func TestBuildLibrarySizeAndValidity(t *testing.T) {
	db, seeds := seedsAndDB(t)
	lib := BuildLibrary(db.Schema(), seeds, 100, 1)
	if len(lib) != 100 {
		t.Fatalf("library size %d", len(lib))
	}
	// Every mutated template must still parse and validate on the DBMS.
	invalid := 0
	for _, tm := range lib {
		if ok, _ := db.ValidateSyntax(tm.SQL()); !ok {
			invalid++
		}
	}
	if invalid > 0 {
		t.Fatalf("%d/%d library templates fail validation", invalid, len(lib))
	}
	// IDs must be unique.
	seen := map[int]bool{}
	for _, tm := range lib {
		if seen[tm.ID] {
			t.Fatalf("duplicate template id %d", tm.ID)
		}
		seen[tm.ID] = true
	}
}

func TestBuildLibraryMutatesStructure(t *testing.T) {
	db, seeds := seedsAndDB(t)
	lib := BuildLibrary(db.Schema(), seeds, 60, 2)
	distinct := map[string]bool{}
	for _, tm := range lib {
		distinct[tm.SQL()] = true
	}
	if len(distinct) < 20 {
		t.Fatalf("library has only %d distinct templates", len(distinct))
	}
	// At least one mutation must change the predicate count.
	base := seeds[0].Features().NumPredicates
	changed := false
	for _, tm := range lib {
		if tm.Features().NumPredicates != base && tm.Stmt.From.Table == "orders" && len(tm.Stmt.Joins) == 0 {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("no add/drop-predicate mutations found")
	}
}

func TestEnvBudgetAndRecording(t *testing.T) {
	db, seeds := seedsAndDB(t)
	target := stats.Uniform(0, 1000, 4, 20)
	env, err := NewEnv(context.Background(), db, engine.Cardinality, target, seeds, 10)
	if err != nil {
		t.Fatal(err)
	}
	space := env.Spaces[0].BOSpace()
	for i := 0; i < 15; i++ {
		x := make([]float64, len(space))
		for d := range x {
			x[d] = float64(i) / 15
		}
		env.Eval(0, space.Denormalize(x))
	}
	if env.Evals() > 10 {
		t.Fatalf("budget exceeded: %d evals", env.Evals())
	}
	if !env.Exhausted() {
		t.Fatal("env must be exhausted")
	}
	if len(env.Pool().Workload()) == 0 {
		t.Fatal("no queries recorded")
	}
}

func TestEnvDeduplicatesQueries(t *testing.T) {
	db, seeds := seedsAndDB(t)
	target := stats.Uniform(0, 10000, 2, 20)
	env, err := NewEnv(context.Background(), db, engine.Cardinality, target, seeds, 50)
	if err != nil {
		t.Fatal(err)
	}
	space := env.Spaces[0].BOSpace()
	raw := space.Denormalize([]float64{0.5, 0.5})
	env.Eval(0, raw)
	env.Eval(0, raw) // identical SQL
	if n := env.Pool().Count(0) + env.Pool().Count(1); n != 1 {
		t.Fatalf("duplicate SQL recorded twice: %d", n)
	}
}

func TestScheduleHeuristics(t *testing.T) {
	db, seeds := seedsAndDB(t)
	ivs := stats.SplitRange(0, 100, 3)
	target := &stats.TargetDistribution{Intervals: ivs, Counts: []int{5, 1, 3}}
	env, err := NewEnv(context.Background(), db, engine.Cardinality, target, seeds, 10)
	if err != nil {
		t.Fatal(err)
	}
	order := env.Schedule(Order)
	if len(order) != 3 || order[0] != 0 || order[2] != 2 {
		t.Fatalf("order schedule: %v", order)
	}
	prio := env.Schedule(Priority)
	if prio[0] != 0 || prio[1] != 2 || prio[2] != 1 {
		t.Fatalf("priority schedule: %v (want deficit-descending 0,2,1)", prio)
	}
}

func TestNewEnvRejectsEmptyLibrary(t *testing.T) {
	db, _ := seedsAndDB(t)
	target := stats.Uniform(0, 100, 2, 10)
	broken := []*sqltemplate.Template{sqltemplate.MustParse("SELECT o_orderkey FROM orders")}
	if _, err := NewEnv(context.Background(), db, engine.Cardinality, target, broken, 10); err == nil {
		t.Fatal("library without placeholders must be rejected")
	}
}

func TestHeuristicString(t *testing.T) {
	if Order.String() != "order" || Priority.String() != "priority" {
		t.Fatal("heuristic names")
	}
}

// TestEnvMemoSavesRepeatCalls checks that a repeated query spends budget but,
// under a repeatable metric, no second DBMS call; ExecTimeMS measures it
// again.
func TestEnvMemoSavesRepeatCalls(t *testing.T) {
	for _, tc := range []struct {
		kind      engine.CostKind
		wantCalls int64
	}{{engine.Cardinality, 1}, {engine.ExecTimeMS, 2}} {
		kind := tc.kind
		db, seeds := seedsAndDB(t)
		env, err := NewEnv(context.Background(), db, kind, stats.Uniform(0, 10000, 2, 20), seeds, 50)
		if err != nil {
			t.Fatal(err)
		}
		raw := env.Spaces[0].BOSpace().Denormalize([]float64{0.5, 0.5})
		c1, ok1 := env.Eval(0, raw)
		c2, ok2 := env.Eval(0, raw)
		if !ok1 || !ok2 || env.Evals() != 2 {
			t.Fatalf("%v: evals %d, ok %v %v", kind, env.Evals(), ok1, ok2)
		}
		if calls := db.ExplainCalls() + db.ExecCalls(); calls != tc.wantCalls {
			t.Fatalf("%v: %d DBMS calls for one query evaluated twice, want %d", kind, calls, tc.wantCalls)
		}
		if kind == engine.Cardinality && c1 != c2 {
			t.Fatalf("%v: costs %v and %v for one query", kind, c1, c2)
		}
	}
}
