// Redshift replay: generate a workload that mimics a production Amazon
// Redshift fleet — template structure follows the Redset-derived
// specification workload (24 templates annotated with tables/joins/
// aggregations), and query plan costs follow the Redset execution-cost
// distribution. This is the paper's headline "realistic" use case.
package main

import (
	"context"
	"fmt"
	"log"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/pipeline"
	"sqlbarber/internal/realworld"
)

func main() {
	db := engine.OpenIMDB(21, 0.5)
	oracle := llm.NewSim(llm.SimOptions{Seed: 21})

	specs := realworld.RedsetSpecs(21)
	target := realworld.RedsetCost(0, 2500, 10, 300)

	p, err := pipeline.New(db, oracle, specs, target,
		pipeline.WithSeed(21),
		pipeline.WithCostKind(engine.PlanCost),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Redshift-style workload on IMDB: %d queries, distance %.2f, %s\n",
		len(res.Workload), res.Distance, res.Elapsed.Round(1e6))
	fmt.Printf("templates: %d seeds+refinements | refine generated=%d accepted=%d | search evals=%d\n",
		len(res.Templates), res.RefineStats.Generated, res.RefineStats.Accepted, res.SearchStats.Evaluations)
	fmt.Printf("LLM usage: %d calls, %dK tokens, $%.2f at o3-mini prices\n\n",
		oracle.Ledger().Calls(), oracle.Ledger().TotalTokens()/1000, oracle.Ledger().CostUSD())

	fmt.Println("plan-cost histogram (generated vs target):")
	costs := make([]float64, len(res.Workload))
	for i, q := range res.Workload {
		costs[i] = q.Cost
	}
	counts := target.Intervals.CountInto(costs)
	for j, iv := range target.Intervals {
		bar := ""
		for i := 0; i < counts[j]; i += 4 {
			bar += "#"
		}
		fmt.Printf("  %-14s %4d / %4d %s\n", iv, counts[j], target.Counts[j], bar)
	}

	// Show the join-width profile of the workload, which should mirror the
	// Redset finding that most queries are narrow.
	joinWidth := map[int]int{}
	for _, st := range res.Templates {
		joinWidth[st.Profile.Template.Features().NumJoins]++
	}
	fmt.Println("\ntemplate join-count profile:")
	for j := 0; j <= 4; j++ {
		if joinWidth[j] > 0 {
			fmt.Printf("  %d joins: %d templates\n", j, joinWidth[j])
		}
	}
}
