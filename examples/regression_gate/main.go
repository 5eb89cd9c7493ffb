// Regression gate: the motivating scenario of §3 — a DBMS team wants to
// catch performance regressions before shipping a change, but production SQL
// is off-limits. They generate a realistic synthetic workload once, freeze
// it, and re-cost it against the "next version" of the system (here: the
// same schema after a simulated data-growth release). Queries whose plan
// cost regresses by more than a threshold fail the gate.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/pipeline"
	"sqlbarber/internal/realworld"
	"sqlbarber/internal/workload"
)

func main() {
	// "v13": the current production-like system.
	v13 := engine.OpenTPCH(8, 0.3)

	// 1. Generate a frozen, realistic benchmark workload against v13.
	p, err := pipeline.New(v13, llm.NewSim(llm.SimOptions{Seed: 8}),
		realworld.RedsetSpecs(8), realworld.RedsetCost(0, 1500, 8, 200),
		pipeline.WithSeed(8),
		pipeline.WithCostKind(engine.PlanCost),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	sum := workload.Summarize(res.Workload)
	fmt.Printf("frozen workload: %d queries from %d templates, plan cost %.0f..%.0f (mean %.0f)\n\n",
		sum.Queries, sum.Templates, sum.CostMin, sum.CostMax, sum.CostMean)

	// 2. "v14": simulate the next release — the dataset grew 60%, so plans
	// that scale badly get disproportionately more expensive.
	v14 := engine.OpenTPCH(8, 0.48)

	// 3. Re-cost every query on both versions and flag regressions.
	type regression struct {
		sql      string
		old, new float64
		ratio    float64
	}
	var regressions []regression
	failures := 0
	const threshold = 2.0 // fail if cost grows beyond 2x the median growth
	var ratios []float64
	costsNew := make([]float64, len(res.Workload))
	for i, q := range res.Workload {
		newCost, err := v14.Cost(context.Background(), q.SQL, engine.PlanCost)
		if err != nil {
			failures++
			continue
		}
		costsNew[i] = newCost
		if q.Cost > 0 {
			ratios = append(ratios, newCost/q.Cost)
		}
	}
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	for i, q := range res.Workload {
		if q.Cost <= 0 || costsNew[i] == 0 {
			continue
		}
		ratio := costsNew[i] / q.Cost
		if ratio > median*threshold {
			regressions = append(regressions, regression{q.SQL, q.Cost, costsNew[i], ratio})
		}
	}
	sort.Slice(regressions, func(i, j int) bool { return regressions[i].ratio > regressions[j].ratio })

	fmt.Printf("v13 -> v14 median cost growth: %.2fx (expected from 60%% data growth)\n", median)
	fmt.Printf("regression gate (> %.1fx median growth): %d of %d queries flagged, %d errored\n\n",
		threshold, len(regressions), len(res.Workload), failures)
	for i, r := range regressions {
		if i >= 3 {
			fmt.Printf("... and %d more\n", len(regressions)-3)
			break
		}
		fmt.Printf("REGRESSION %.1fx (%.0f -> %.0f):\n  %.110s\n", r.ratio, r.old, r.new, r.sql)
	}
	if len(regressions) == 0 {
		fmt.Println("gate PASSED: no query regressed disproportionately")
	}
}
