package learnedsqlgen

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
		sqltemplate.MustParse("SELECT c_custkey FROM customer WHERE c_custkey <= {p_1} AND c_acctbal <= {p_2}"),
	}
	for i, s := range seeds {
		s.ID = i + 1
	}
	lib := baseline.BuildLibrary(db.Schema(), seeds, 30, 1)
	env, err := baseline.NewEnv(context.Background(), db, engine.Cardinality, target, lib, budget)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestRLGeneratesQueries(t *testing.T) {
	target := stats.Uniform(0, 1500, 5, 25)
	env := newEnv(t, target, 800)
	st := Run(env, Options{Heuristic: baseline.Priority, BudgetPerInterval: 160, Seed: 1})
	if len(env.Pool().Workload()) == 0 {
		t.Fatal("no queries generated")
	}
	if st.Episodes == 0 || st.Evaluations == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if env.Pool().Distance() >= workload.Distance(nil, target) {
		t.Fatal("RL made no progress over empty")
	}
}

func TestRLRespectsBudget(t *testing.T) {
	target := stats.Uniform(0, 1500, 5, 100)
	env := newEnv(t, target, 60)
	Run(env, Options{Heuristic: baseline.Order, BudgetPerInterval: 12, Seed: 1})
	if env.Evals() > 60 {
		t.Fatalf("budget exceeded: %d", env.Evals())
	}
}

func TestActionDelta(t *testing.T) {
	small := action{dim: 0, dir: 1, mag: 0}
	large := action{dim: 0, dir: -1, mag: 1}
	if small.delta() != 0.05 {
		t.Fatalf("small delta %v", small.delta())
	}
	if large.delta() != -0.25 {
		t.Fatalf("large delta %v", large.delta())
	}
}

func TestRewardShaping(t *testing.T) {
	iv := stats.Interval{Lo: 100, Hi: 200}
	if rewardOf(150, iv, 1000) != 1 {
		t.Fatal("in-interval reward must be 1")
	}
	near := rewardOf(90, iv, 1000)
	far := rewardOf(900, iv, 1000)
	if near <= far {
		t.Fatalf("reward must decrease with distance: near=%v far=%v", near, far)
	}
	if near >= 0 || far >= 0 {
		t.Fatal("out-of-interval rewards must be negative")
	}
}
