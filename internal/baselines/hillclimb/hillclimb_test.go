package hillclimb

import (
	"context"
	"testing"

	"sqlbarber/internal/baselines/baseline"
	"sqlbarber/internal/engine"
	"sqlbarber/internal/sqltemplate"
	"sqlbarber/internal/stats"
	"sqlbarber/internal/workload"
)

func newEnv(t testing.TB, target *stats.TargetDistribution, budget int) *baseline.Env {
	t.Helper()
	db := engine.OpenTPCH(1, 0.1)
	seeds := []*sqltemplate.Template{
		sqltemplate.MustParse("SELECT o_orderkey FROM orders WHERE o_orderkey <= {p_1}"),
		sqltemplate.MustParse("SELECT l_orderkey FROM lineitem WHERE l_orderkey <= {p_1} AND l_quantity <= {p_2}"),
	}
	for i, s := range seeds {
		s.ID = i + 1
	}
	lib := baseline.BuildLibrary(db.Schema(), seeds, 40, 1)
	env, err := baseline.NewEnv(context.Background(), db, engine.Cardinality, target, lib, budget)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestHillClimbGeneratesQueries(t *testing.T) {
	target := stats.Uniform(0, 1500, 5, 25)
	env := newEnv(t, target, 800)
	st := Run(env, Options{Heuristic: baseline.Priority, BudgetPerInterval: 160, Seed: 1})
	if len(env.Pool().Workload()) == 0 {
		t.Fatal("no queries generated")
	}
	if st.Evaluations == 0 {
		t.Fatal("no evaluations recorded")
	}
	d := env.Pool().Distance()
	full := workload.Distance(nil, target)
	if d >= full {
		t.Fatalf("hill climbing made no progress: %v vs empty %v", d, full)
	}
}

func TestHillClimbRespectsBudget(t *testing.T) {
	target := stats.Uniform(0, 1500, 5, 100)
	env := newEnv(t, target, 50)
	Run(env, Options{Heuristic: baseline.Order, BudgetPerInterval: 10, Seed: 1})
	if env.Evals() > 50 {
		t.Fatalf("budget exceeded: %d", env.Evals())
	}
}

func TestHillClimbBothHeuristics(t *testing.T) {
	for _, h := range []baseline.Heuristic{baseline.Order, baseline.Priority} {
		target := stats.Uniform(0, 1000, 4, 16)
		env := newEnv(t, target, 400)
		Run(env, Options{Heuristic: h, BudgetPerInterval: 100, Seed: 2})
		if len(env.Pool().Workload()) == 0 {
			t.Errorf("heuristic %s produced nothing", h)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	if b := (Options{}).budget(); b <= 0 {
		t.Fatalf("default budget %d", b)
	}
}
