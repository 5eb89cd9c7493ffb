package benchmarks

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"sqlbarber/internal/baselines/baseline"
	"sqlbarber/internal/baselines/hillclimb"
	"sqlbarber/internal/baselines/learnedsqlgen"
)

// TestBaselineOutputsPinned pins the two baselines' outputs across commits.
// For HillClimbing (order) and LearnedSQLGen (priority) on the tiny uniform
// TPC-H task it hashes what runMethodOn reports (final distance, workload
// size, DBMS evaluations and every trajectory distance), and, from a direct
// run over the same library, target and budget, the selected workload's
// bytes. The hashes were recorded before the baselines' query pool moved
// into workload.Pool; a pure refactor must leave them alone.
func TestBaselineOutputsPinned(t *testing.T) {
	ctx := context.Background()
	b, err := ByName("uniform")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		m          Method
		h          baseline.Heuristic
		result, wl string
	}{
		{HillClimbOrder, baseline.Order, "6502169e9322a81f", "a930a802b7cff7cd"},
		{LearnedSQLPrio, baseline.Priority, "f27f42ce254f8203", "b2e4c1a3738769ac"},
	} {
		t.Run(string(tc.m), func(t *testing.T) {
			r := NewRunner(tiny(), 17)
			target := b.Target(0, r.Scale.RangeHi, r.Scale.QueryDivisor)
			res, err := r.runMethodOn(ctx, tc.m, b, TPCH, target, b.CostKind)
			if err != nil {
				t.Fatal(err)
			}
			var sig strings.Builder
			fmt.Fprintf(&sig, "distance=%.9g queries=%d evals=%d\n", res.FinalDistance, res.Queries, res.Evaluations)
			for i, p := range res.Trajectory {
				fmt.Fprintf(&sig, "traj%d\t%.9g\n", i, p.Distance)
			}

			budget := r.Scale.BaselineEvalsPerQuery * target.Total()
			env, err := baseline.NewEnv(ctx, r.DB(TPCH), b.CostKind, target, r.Library(ctx, TPCH), budget)
			if err != nil {
				t.Fatal(err)
			}
			perInterval := budget / len(target.Intervals)
			if tc.m == HillClimbOrder {
				hillclimb.Run(env, hillclimb.Options{Heuristic: tc.h, BudgetPerInterval: perInterval, Seed: r.Seed})
			} else {
				learnedsqlgen.Run(env, learnedsqlgen.Options{Heuristic: tc.h, BudgetPerInterval: perInterval, Seed: r.Seed})
			}
			var wl strings.Builder
			for i, q := range env.Pool().Workload() {
				fmt.Fprintf(&wl, "q%d\t%d\t%.9g\t%s\n", i, q.TemplateID, q.Cost, q.SQL)
			}

			hash := func(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))[:16] }
			if got := hash(sig.String()); got != tc.result {
				t.Errorf("result hash %s, pinned %s\n%s", got, tc.result, sig.String())
			}
			if got := hash(wl.String()); got != tc.wl {
				t.Errorf("workload hash %s, pinned %s\n%s", got, tc.wl, wl.String())
			}
		})
	}
}
