package search

import (
	"context"
	"fmt"
	"testing"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/stats"
	"sqlbarber/internal/workload"
)

// signature renders a run's observable output — the exact query sequence
// (SQL and cost, in emission order) plus the final stats — as one string so
// runs can be compared byte-for-byte.
func signature(queries []workload.Query, st Stats) string {
	out := fmt.Sprintf("stats=%+v\n", st)
	for i, q := range queries {
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
		queries, st := s.Run(context.Background(), states, target, nil)
		return signature(queries, st)
	}
	seq := run(1)
	for _, par := range []int{2, 4, 8} {
		if got := run(par); got != seq {
			t.Fatalf("Parallel=%d diverged from sequential:\n--- seq ---\n%s\n--- par ---\n%s", par, seq, got)
		}
	}
}

// TestSearchCancelReturnsPartial verifies cancellation stops the round loop
// promptly and still returns whatever queries were accumulated so far.
func TestSearchCancelReturnsPartial(t *testing.T) {
	states := setup(t)
	target := stats.Uniform(0, 1500, 5, 60)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := &Searcher{Kind: engine.Cardinality, Seed: 5}
	queries, st := s.Run(ctx, states, target, nil)
	if st.Rounds != 0 {
		t.Fatalf("cancelled search still ran %d rounds", st.Rounds)
	}
	if queries == nil {
		t.Fatal("cancelled search must return a (possibly empty) slice, not nil")
	}
}
