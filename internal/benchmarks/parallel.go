package benchmarks

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/pipeline"
	"sqlbarber/internal/stats"
	"sqlbarber/internal/workload"
)

// ParallelPoint is one row of the parallel-scaling experiment.
type ParallelPoint struct {
	Workers  int
	Elapsed  time.Duration
	Speedup  float64
	DBCalls  int64
	Distance float64
	// Hash fingerprints the produced workload (SQL + cost of every query, in
	// order); identical hashes across worker counts prove the byte-identical
	// determinism contract.
	Hash string
}

// workloadHash fingerprints a workload's exact content and order.
func workloadHash(qs []workload.Query) string {
	h := sha256.New()
	for _, q := range qs {
		fmt.Fprintf(h, "%s\x00%.9g\x00%d\n", q.SQL, q.Cost, q.TemplateID)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// RunParallelScaling measures what deterministic parallelism buys: the full
// pipeline runs at several worker counts against TPC-H with a
// simulated-latency oracle (each LLM call sleeps like a hosted-model round
// trip, which is where real runs spend their wall clock), reporting
// wall-clock speedup while verifying the determinism contract — the same
// workload hash and the same DBMS evaluation count at every level. A hash or
// evaluation-count mismatch is returned as an error.
func (r *Runner) RunParallelScaling(ctx context.Context, w io.Writer, levels []int) ([]ParallelPoint, error) {
	if len(levels) == 0 {
		levels = []int{1, 2, 4, 8}
	}
	const latency = 25 * time.Millisecond
	fmt.Fprintf(w, "=== Parallel scaling | TPC-H sf=%.1f, simulated LLM latency %s ===\n", r.Scale.SF, latency)
	var out []ParallelPoint
	for _, lvl := range levels {
		// A fresh database per level isolates evaluation counters and the
		// plan cache, so every level does identical work.
		db := TPCH.Open(r.Seed, r.Scale.SF)
		target := stats.Uniform(0, r.Scale.RangeHi, 5, 600/r.Scale.QueryDivisor)
		start := time.Now()
		p, err := pipeline.New(db, llm.NewSim(llm.SimOptions{Seed: r.Seed, Latency: latency}), r.Specs(), target,
			pipeline.WithSeed(r.Seed),
			pipeline.WithCostKind(engine.Cardinality),
			pipeline.WithParallel(lvl),
		)
		if err != nil {
			return out, err
		}
		res, err := p.Run(ctx)
		if err != nil {
			return out, err
		}
		pt := ParallelPoint{
			Workers:  lvl,
			Elapsed:  time.Since(start),
			DBCalls:  res.DBCalls,
			Distance: res.Distance,
			Hash:     workloadHash(res.Workload),
		}
		pt.Speedup = 1
		if len(out) > 0 {
			pt.Speedup = float64(out[0].Elapsed) / float64(pt.Elapsed)
		}
		out = append(out, pt)
		fmt.Fprintf(w, "workers=%-3d elapsed=%-12s speedup=%-6.2f dbcalls=%-8d distance=%-8.1f workload=%s\n",
			pt.Workers, pt.Elapsed.Round(time.Millisecond), pt.Speedup, pt.DBCalls, pt.Distance, pt.Hash)
	}
	for _, pt := range out[1:] {
		if pt.Hash != out[0].Hash {
			return out, fmt.Errorf("benchmarks: determinism violated: workers=%d workload hash %s != sequential %s",
				pt.Workers, pt.Hash, out[0].Hash)
		}
		if pt.DBCalls != out[0].DBCalls {
			return out, fmt.Errorf("benchmarks: DBMS evaluation count drifted: workers=%d used %d calls, sequential used %d",
				pt.Workers, pt.DBCalls, out[0].DBCalls)
		}
	}
	fmt.Fprintf(w, "determinism: all %d levels produced workload %s with %d DBMS calls\n",
		len(out), out[0].Hash, out[0].DBCalls)
	return out, nil
}
