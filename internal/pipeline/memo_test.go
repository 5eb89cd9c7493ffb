package pipeline

import (
	"context"
	"fmt"
	"testing"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/stats"
)

// TestMemoCountsParallelIdentical checks that the probes the cost memo
// saves do not depend on the worker count: Result.DBCalls, the search's
// memo hits and the profiler's deduplicated probes are equal at -parallel
// 1, 2 and 8, for an estimated and an executed metric, and the memo does
// save calls.
func TestMemoCountsParallelIdentical(t *testing.T) {
	for _, kind := range []engine.CostKind{engine.Cardinality, engine.RowsProcessed} {
		t.Run(kind.String(), func(t *testing.T) {
			var want string
			for _, par := range []int{1, 2, 8} {
				collector := obs.NewCollector()
				p, err := New(engine.OpenTPCH(21, 0.02), llm.NewSim(llm.SimOptions{Seed: 21}),
					smallSpecs(), stats.Uniform(0, 1200, 4, 30),
					WithSeed(21), WithCostKind(kind), WithParallel(par), WithObs(collector))
				if err != nil {
					t.Fatal(err)
				}
				res, err := p.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				snap := collector.Snapshot()
				hits := snap.Counter(obs.MSearchMemoHits)
				if hits == 0 {
					t.Fatalf("parallel %d: no search probe was answered from the memo", par)
				}
				got := fmt.Sprintf("dbcalls=%d memo_hits=%d deduped=%d", res.DBCalls, hits, snap.Counter(obs.MProfileDedupedProbes))
				if par == 1 {
					want = got
				} else if got != want {
					t.Fatalf("parallel %d: %s; parallel 1: %s", par, got, want)
				}
			}
		})
	}
}
