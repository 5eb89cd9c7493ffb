package pipeline

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/realworld"
	"sqlbarber/internal/stats"
)

// TestRunSignaturePinned pins runSignature across commits, not only within
// one tree as TestParallelByteIdentical does: each case's signature hash
// (workload bytes, DBMS calls and every per-round trajectory distance) was
// recorded before the query pool moved into workload.Pool. Both tasks stop
// short of the target, so search runs many rounds over several refine-search
// rounds. A pure refactor must leave the hashes alone; a change that moves
// one changes what the pipeline generates.
func TestRunSignaturePinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind engine.CostKind
		sf   float64
		want string
	}{
		{"cardinality", engine.Cardinality, 0.05, "5e1c1f9da36552a5"},
		{"rows-processed", engine.RowsProcessed, 0.02, "1ffd5aefb54c7815"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := New(engine.OpenTPCH(17, tc.sf), llm.NewSim(llm.SimOptions{Seed: 17}), realworld.RedsetSpecs(17)[:8],
				stats.Uniform(0, 3000, 6, 60), WithSeed(17), WithCostKind(tc.kind))
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			sig := runSignature(res)
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(sig)))[:16]; got != tc.want {
				t.Fatalf("run signature hash %s, pinned %s\n%s", got, tc.want, sig)
			}
		})
	}
}
