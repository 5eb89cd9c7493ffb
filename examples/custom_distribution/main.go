// Custom distribution: SQLBarber is "not restricted to specific
// distributions, and can generate queries that follow any user-specified
// cost distribution" (§1). This example targets a bimodal distribution —
// a mix of cheap OLTP-style lookups and expensive analytical scans — that
// no built-in benchmark shape covers.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/pipeline"
	"sqlbarber/internal/spec"
	"sqlbarber/internal/stats"
)

func main() {
	db := engine.OpenTPCH(99, 0.3)

	// Build a bimodal target by hand: two Gaussian humps over 8 intervals.
	intervals := stats.SplitRange(0, 2000, 8)
	weights := make([]float64, len(intervals))
	for i, iv := range intervals {
		c := iv.Center()
		weights[i] = gauss(c, 300, 150) + 0.8*gauss(c, 1500, 200)
	}
	target := stats.FromWeights(intervals, weights, 160)

	specs := []spec.Spec{
		{NumJoins: spec.Int(0), NumPredicates: spec.Int(2)},
		{NumJoins: spec.Int(1), NumPredicates: spec.Int(2)},
		{NumJoins: spec.Int(1), NumPredicates: spec.Int(2)},
		{NumJoins: spec.Int(2), NumPredicates: spec.Int(2)},
		{NumJoins: spec.Int(0), NumPredicates: spec.Int(1), GroupBy: spec.Bool(true)},
	}

	p, err := pipeline.New(db, llm.NewSim(llm.SimOptions{Seed: 99}), specs, target,
		pipeline.WithSeed(99),
		pipeline.WithCostKind(engine.Cardinality),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("bimodal workload: %d queries, distance %.2f\n\n", len(res.Workload), res.Distance)
	costs := make([]float64, len(res.Workload))
	for i, q := range res.Workload {
		costs[i] = q.Cost
	}
	counts := target.Intervals.CountInto(costs)
	fmt.Println("cardinality histogram (generated vs target):")
	for j, iv := range target.Intervals {
		fmt.Printf("  %-14s %4d / %4d\n", iv, counts[j], target.Counts[j])
	}
}

func gauss(x, mu, sigma float64) float64 {
	z := (x - mu) / sigma
	return math.Exp(-z * z / 2)
}
