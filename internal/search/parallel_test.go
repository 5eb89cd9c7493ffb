package search

import (
	"context"
	"fmt"
	"testing"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/stats"
	"sqlbarber/internal/workload"
)

// signature renders a run's observable output — every template's probes
// (SQL and cost, in emission order), the pool's per-interval counts and
// workload, and the final stats — as one string so runs can be compared
// byte-for-byte.
func signature(states []*workload.TemplateState, pool *workload.Pool, st Stats) string {
	out := fmt.Sprintf("stats=%+v\n", st)
	for _, s := range states {
		for i, o := range s.Profile.Obs {
			out += fmt.Sprintf("t%d.%d\t%.6f\t%s\n", s.Profile.Template.ID, i, o.Cost, o.SQL)
		}
	}
	for j := range pool.Target().Counts {
		out += fmt.Sprintf("d%d=%d\n", j, pool.Count(j))
	}
	for i, q := range pool.Workload() {
		out += fmt.Sprintf("%d\t%.6f\t%s\n", i, q.Cost, q.SQL)
	}
	return out
}

// TestSearchParallelByteIdentical is the determinism contract for the wave
// scheduler: Parallel is pure scheduling, so any worker count must yield
// the exact same queries, in the same order, with the same stats.
func TestSearchParallelByteIdentical(t *testing.T) {
	run := func(par int) string {
		states := setup(t)
		target := stats.Uniform(0, 1500, 5, 60)
		s := &Searcher{Kind: engine.Cardinality, Seed: 5, Parallel: par}
		pool := workload.NewPool(target)
		st := s.Run(context.Background(), states, pool)
		return signature(states, pool, st)
	}
	seq := run(1)
	for _, par := range []int{2, 4, 8} {
		if got := run(par); got != seq {
			t.Fatalf("Parallel=%d diverged from sequential:\n--- seq ---\n%s\n--- par ---\n%s", par, seq, got)
		}
	}
}

// TestSearchCancelReturnsPartial verifies cancellation stops the round loop
// before it adds anything to the pool.
func TestSearchCancelReturnsPartial(t *testing.T) {
	states := setup(t)
	target := stats.Uniform(0, 1500, 5, 60)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := &Searcher{Kind: engine.Cardinality, Seed: 5}
	pool := workload.NewPool(target)
	st := s.Run(ctx, states, pool)
	if st.Rounds != 0 {
		t.Fatalf("cancelled search still ran %d rounds", st.Rounds)
	}
	if w := pool.Workload(); len(w) != 0 {
		t.Fatalf("cancelled search added %d queries to the pool", len(w))
	}
}
