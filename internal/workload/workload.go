// Package workload defines the shared currency of the cost-aware query
// generator: profiled template state flowing between refinement (§5.2) and
// predicate search (§5.3), and the generated queries themselves.
package workload

import (
	"sqlbarber/internal/profiler"
	"sqlbarber/internal/spec"
	"sqlbarber/internal/stats"
)

// TemplateState couples a profiled template with the specification it was
// generated under. The profile accumulates observations as the pipeline
// progresses (the P* of Algorithm 2).
type TemplateState struct {
	Profile *profiler.Profile
	Spec    spec.Spec
}

// Query is one generated SQL query with its measured cost.
type Query struct {
	SQL        string
	Cost       float64
	TemplateID int
}

// Closeness computes Equation (2): how well-positioned a template is to
// generate queries inside the interval — inverse mean distance of its
// observed costs to the interval, scaled by its cost-diversity ratio.
func Closeness(obs []profiler.Observation, iv stats.Interval) float64 {
	if len(obs) == 0 {
		return 0
	}
	sum := 0.0
	for _, o := range obs {
		sum += iv.Dist(o.Cost)
	}
	meanDist := sum / float64(len(obs))
	return 1 / (1 + meanDist) * Variety(obs)
}

// Variety returns the distinct-cost ratio v_i of Equation (2).
func Variety(obs []profiler.Observation) float64 {
	if len(obs) == 0 {
		return 0
	}
	unique := map[float64]bool{}
	for _, o := range obs {
		unique[o.Cost] = true
	}
	return float64(len(unique)) / float64(len(obs))
}

// CountsOf bins all template observations into interval counts (Equation 1).
func CountsOf(templates []*TemplateState, ivs stats.Intervals) []int {
	counts := make([]int, len(ivs))
	for _, t := range templates {
		for _, o := range t.Profile.Obs {
			if j := ivs.Index(o.Cost); j >= 0 {
				counts[j]++
			}
		}
	}
	return counts
}

// QueriesByInterval bins queries per interval index; queries outside the
// range are dropped.
func QueriesByInterval(queries []Query, ivs stats.Intervals) [][]Query {
	out := make([][]Query, len(ivs))
	for _, q := range queries {
		if j := ivs.Index(q.Cost); j >= 0 {
			out[j] = append(out[j], q)
		}
	}
	return out
}

// SelectWorkload assembles the final workload: for each interval, up to the
// target count of queries (deduplicated by SQL text). The returned slice is
// the N-query workload whose cost histogram the evaluation compares against
// the target.
func SelectWorkload(queries []Query, target *stats.TargetDistribution) []Query {
	byIv := QueriesByInterval(queries, target.Intervals)
	var out []Query
	for j, want := range target.Counts {
		seen := map[string]bool{}
		taken := 0
		for _, q := range byIv[j] {
			if taken >= want {
				break
			}
			if seen[q.SQL] {
				continue
			}
			seen[q.SQL] = true
			out = append(out, q)
			taken++
		}
	}
	return out
}

// Distance measures the Wasserstein distance between the workload's cost
// histogram and the target (Definition 2.12).
func Distance(queries []Query, target *stats.TargetDistribution) float64 {
	costs := make([]float64, len(queries))
	for i, q := range queries {
		costs[i] = q.Cost
	}
	return stats.WassersteinCosts(target, costs)
}

// Summary aggregates descriptive statistics over a workload.
type Summary struct {
	Queries       int
	Templates     int // distinct template ids
	CostMin       float64
	CostMean      float64
	CostMax       float64
	DistinctCosts int
}

// Summarize computes a workload's descriptive statistics.
func Summarize(queries []Query) Summary {
	s := Summary{Queries: len(queries)}
	if len(queries) == 0 {
		return s
	}
	templates := map[int]bool{}
	costs := map[float64]bool{}
	sum := 0.0
	s.CostMin, s.CostMax = queries[0].Cost, queries[0].Cost
	for _, q := range queries {
		templates[q.TemplateID] = true
		costs[q.Cost] = true
		sum += q.Cost
		if q.Cost < s.CostMin {
			s.CostMin = q.Cost
		}
		if q.Cost > s.CostMax {
			s.CostMax = q.Cost
		}
	}
	s.Templates = len(templates)
	s.DistinctCosts = len(costs)
	s.CostMean = sum / float64(len(queries))
	return s
}
