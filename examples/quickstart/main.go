// Quickstart: generate a 100-query workload on the built-in TPC-H dataset
// whose cardinalities are uniformly distributed over [0, 1500), from three
// natural-language template specifications.
package main

import (
	"context"
	"fmt"
	"log"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/pipeline"
	"sqlbarber/internal/spec"
	"sqlbarber/internal/stats"
)

func main() {
	// 1. Open a target database (the embedded TPC-H-shaped dataset).
	db := engine.OpenTPCH(42, 0.2)

	// 2. Describe the templates you want in plain language.
	specs := []spec.Spec{
		spec.FromNaturalLanguage("I want an SQL template with 1 join and 2 predicate values."),
		spec.FromNaturalLanguage("I want an SQL template with no joins, 2 predicate values, and a nested subquery."),
		spec.FromNaturalLanguage("I want an SQL template with 1 join, 1 predicate value, 2 aggregations, and a GROUP BY."),
	}

	// 3. Describe the cost distribution the workload must follow.
	target := stats.Uniform(0, 1500, 6, 100)

	// 4. Generate: New validates everything up front (coded errors), Run
	// executes the pipeline.
	p, err := pipeline.New(db, llm.NewSim(llm.SimOptions{Seed: 42}), specs, target,
		pipeline.WithSeed(42),
		pipeline.WithCostKind(engine.Cardinality),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("generated %d queries in %s (Wasserstein distance to target: %.2f)\n\n",
		len(res.Workload), res.Elapsed.Round(1e6), res.Distance)
	for i, q := range res.Workload {
		if i >= 5 {
			fmt.Printf("... and %d more\n", len(res.Workload)-5)
			break
		}
		fmt.Printf("-- cardinality=%.0f\n%s;\n", q.Cost, q.SQL)
	}

	// 5. Inspect how the costs landed in each interval.
	counts := target.Intervals.CountInto(costsOf(res))
	fmt.Println("\ninterval histogram (generated vs target):")
	for j, iv := range target.Intervals {
		fmt.Printf("  %-14s %4d / %4d\n", iv, counts[j], target.Counts[j])
	}
}

func costsOf(res *pipeline.Result) []float64 {
	out := make([]float64, len(res.Workload))
	for i, q := range res.Workload {
		out[i] = q.Cost
	}
	return out
}
