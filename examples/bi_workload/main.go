// BI workload: the §2 motivating scenario — benchmarking business-
// intelligence engines needs queries with structurally simple relational
// trees (no joins) but complex scalar expressions, a shape no standard
// benchmark provides. SQLBarber generates it from a one-line instruction.
package main

import (
	"context"
	"fmt"
	"log"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/pipeline"
	"sqlbarber/internal/spec"
	"sqlbarber/internal/sqltemplate"
	"sqlbarber/internal/stats"
)

func main() {
	db := engine.OpenTPCH(7, 0.2)

	// "I want an SQL template with no joins but with complex scalar
	// expressions" — Example 2.6 of the paper.
	instruction := "I want an SQL template with no joins but with complex scalar expressions and 2 predicate values."
	specs := make([]spec.Spec, 6)
	for i := range specs {
		specs[i] = spec.FromNaturalLanguage(instruction)
	}

	target := stats.Normal(0, 1200, 6, 60, 600, 250)
	p, err := pipeline.New(db, llm.NewSim(llm.SimOptions{Seed: 7}), specs, target,
		pipeline.WithSeed(7),
		pipeline.WithCostKind(engine.Cardinality),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("BI workload: %d queries, distance %.2f\n\n", len(res.Workload), res.Distance)

	// Verify the structural constraints actually hold on every template.
	violations := 0
	for _, st := range res.Templates {
		f := st.Profile.Template.Features()
		if f.NumJoins != 0 || !f.HasComplexScalar {
			violations++
		}
	}
	fmt.Printf("templates: %d total, %d violating the BI constraints\n", len(res.Templates), violations)

	fmt.Println("\nsample templates:")
	for i, st := range res.Templates {
		if i >= 3 {
			break
		}
		printTemplate(st.Profile.Template)
	}
}

func printTemplate(t *sqltemplate.Template) {
	f := t.Features()
	fmt.Printf("  [joins=%d complex_scalar=%t predicates=%d]\n  %s\n",
		f.NumJoins, f.HasComplexScalar, f.NumPredicates, t.SQL())
}
