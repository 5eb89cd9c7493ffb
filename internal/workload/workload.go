// Package workload defines the shared currency of the cost-aware query
// generator: profiled template state flowing between refinement (§5.2) and
// predicate search (§5.3), and the generated queries themselves.
package workload

import (
	"slices"

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

// Scorer evaluates Equation (2) for template after template, counting
// distinct costs in one reused scratch buffer. The zero value is ready to
// use; a Scorer is not safe for concurrent use.
type Scorer struct {
	costs []float64
}

// Closeness computes Equation (2): how well-positioned a template is to
// generate queries inside the interval — inverse mean distance of its
// observed costs to the interval, scaled by its cost-diversity ratio, which
// it also returns (see variety).
func (s *Scorer) Closeness(obs []profiler.Observation, iv stats.Interval) (score, variety float64) {
	if len(obs) == 0 {
		return 0, 0
	}
	sum := 0.0
	for _, o := range obs {
		sum += iv.Dist(o.Cost)
	}
	meanDist := sum / float64(len(obs))
	variety = s.variety(obs)
	return 1 / (1 + meanDist) * variety, variety
}

// variety returns the distinct-cost ratio v_i of Equation (2). Costs are
// distinct as float64 map keys are: every NaN is distinct from every value,
// itself included, and +0 and -0 are one value.
func (s *Scorer) variety(obs []profiler.Observation) float64 {
	if len(obs) == 0 {
		return 0
	}
	s.costs = s.costs[:0]
	for _, o := range obs {
		s.costs = append(s.costs, o.Cost)
	}
	// Sorting puts equal values (±0 included) next to each other; a NaN
	// differs from its neighbours, NaNs included.
	slices.Sort(s.costs)
	distinct := 0
	for i, c := range s.costs {
		if i == 0 || c != s.costs[i-1] {
			distinct++
		}
	}
	return float64(distinct) / float64(len(obs))
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

// Pool is the current distribution d of Algorithm 3 together with the
// queries behind it: per cost interval, the queries whose SQL is new to that
// interval, in the order they were added. Search, the pipeline and the
// baselines all count, assemble and score through one Pool, so the rule
// "dedupe by SQL within an interval, count, take up to the quota" has one
// owner.
type Pool struct {
	target *stats.TargetDistribution
	byIv   [][]Query
	seen   map[poolKey]struct{}
}

type poolKey struct {
	interval int
	sql      string
}

// NewPool returns an empty pool over the target's intervals and quotas.
func NewPool(target *stats.TargetDistribution) *Pool {
	return &Pool{target: target, byIv: make([][]Query, len(target.Intervals)), seen: map[poolKey]struct{}{}}
}

// Add records q and reports whether it counted: its cost must fall in an
// interval of the target and its SQL must be new to that interval.
func (p *Pool) Add(q Query) bool {
	j := p.target.Intervals.Index(q.Cost)
	if j < 0 {
		return false
	}
	k := poolKey{j, q.SQL}
	if _, dup := p.seen[k]; dup {
		return false
	}
	p.seen[k] = struct{}{}
	p.byIv[j] = append(p.byIv[j], q)
	return true
}

// Target returns the distribution the pool counts against.
func (p *Pool) Target() *stats.TargetDistribution { return p.target }

// Count returns interval j's number of unique queries, d[j], which may
// exceed the target's quota.
func (p *Pool) Count(j int) int { return len(p.byIv[j]) }

// Workload assembles the N-query workload: the first Counts[j] queries of
// each interval, in interval order.
func (p *Pool) Workload() []Query {
	var out []Query
	for j, want := range p.target.Counts {
		out = append(out, p.byIv[j][:p.taken(j, want)]...)
	}
	return out
}

// Distance is the Wasserstein distance between Workload's cost histogram
// and the target (Definition 2.12), computed from the counts alone.
func (p *Pool) Distance() float64 {
	have := make([]int, len(p.byIv))
	for j, want := range p.target.Counts {
		have[j] = p.taken(j, want)
	}
	return stats.Wasserstein(p.target.Intervals, p.target.Counts, have)
}

// taken is how many of interval j's queries the workload takes.
func (p *Pool) taken(j, want int) int {
	return max(0, min(want, len(p.byIv[j])))
}

// SelectWorkload assembles the workload of a query list: the Workload of a
// Pool the queries are added to in order.
func SelectWorkload(queries []Query, target *stats.TargetDistribution) []Query {
	p := NewPool(target)
	for _, q := range queries {
		p.Add(q)
	}
	return p.Workload()
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
