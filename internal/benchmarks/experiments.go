package benchmarks

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/generator"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/pipeline"
	"sqlbarber/internal/realworld"
)

// RunFigure5 reproduces Figure 5: the performance comparison for
// cardinality targets across all cardinality benchmarks, both datasets, and
// all five methods. Results are printed as the figure's two panels per
// benchmark (distance trajectory endpoints and E2E time bars) and returned
// for CSV export.
func (r *Runner) RunFigure5(ctx context.Context, w io.Writer, methods []Method) ([]MethodResult, error) {
	return r.runFigure(ctx, w, "Figure 5 (Cardinality)", CardinalityBenchmarks(), engine.Cardinality, methods)
}

// RunFigure6 reproduces Figure 6: the performance comparison for execution
// plan cost targets.
func (r *Runner) RunFigure6(ctx context.Context, w io.Writer, methods []Method) ([]MethodResult, error) {
	return r.runFigure(ctx, w, "Figure 6 (Execution Plan Cost)", CostBenchmarks(), engine.PlanCost, methods)
}

func (r *Runner) runFigure(ctx context.Context, w io.Writer, title string, benches []Benchmark, kind engine.CostKind, methods []Method) ([]MethodResult, error) {
	fmt.Fprintf(w, "=== %s | scale=%s sf=%.1f range=[0,%.0f) ===\n", title, r.Scale.Name, r.Scale.SF, r.Scale.RangeHi)
	var all []MethodResult
	for _, b := range benches {
		b.CostKind = kind
		target := b.Target(0, r.Scale.RangeHi, r.Scale.QueryDivisor)
		fmt.Fprintf(w, "\n--- %s (%d queries, %d intervals) ---\n", b.Name, target.Total(), b.NumIntervals)
		fmt.Fprintf(w, "target histogram: %v\n", target.Counts)
		var panel []MethodResult
		for _, ds := range []Dataset{TPCH, IMDB} {
			for _, m := range methods {
				res, err := r.runMethodOn(ctx, m, b, ds, target.Clone(), kind)
				if err != nil {
					return all, fmt.Errorf("%s/%s/%s: %w", b.Name, ds, m, err)
				}
				all = append(all, res)
				panel = append(panel, res)
				fmt.Fprintf(w, "%-6s %-24s e2e=%-10s final_distance=%-10.1f queries=%-5d evals=%-7d projected@100ms/eval=%s\n",
					ds, m, res.E2ETime.Round(time.Millisecond), res.FinalDistance, res.Queries, res.Evaluations,
					res.ProjectedE2E().Round(time.Second))
			}
		}
		fmt.Fprintf(w, "distance-over-time (left panel):\n")
		PrintTrajectories(w, panel, 40)
	}
	return all, nil
}

// ScalingPoint is one bar of Figure 7.
type ScalingPoint struct {
	Method        Method
	X             int // #queries or #intervals
	E2ETime       time.Duration
	FinalDistance float64
}

// RunFigure7Queries reproduces Figure 7 (a)-(b): scaling with the number of
// queries on the Redset_Cost_Hard distribution over IMDB, 10 intervals.
func (r *Runner) RunFigure7Queries(ctx context.Context, w io.Writer, queryCounts []int, methods []Method) ([]ScalingPoint, error) {
	if len(queryCounts) == 0 {
		queryCounts = []int{50, 500, 5000}
	}
	fmt.Fprintf(w, "=== Figure 7 (a,b): time/distance vs #queries | IMDB, Redset_Cost, 10 intervals ===\n")
	var out []ScalingPoint
	b, _ := ByName("Redset_Cost_Hard")
	b.NumIntervals = 10
	for _, n := range queryCounts {
		target := realworld.RedsetCost(0, r.Scale.RangeHi, 10, n)
		for _, m := range methods {
			res, err := r.runMethodOn(ctx, m, b, IMDB, target.Clone(), engine.PlanCost)
			if err != nil {
				return out, err
			}
			out = append(out, ScalingPoint{m, n, res.E2ETime, res.FinalDistance})
			fmt.Fprintf(w, "queries=%-6d %-24s time=%-10s final_distance=%-8.1f evals=%-7d projected@100ms/eval=%s\n",
				n, m, res.E2ETime.Round(time.Millisecond), res.FinalDistance, res.Evaluations,
				res.ProjectedE2E().Round(time.Second))
		}
	}
	return out, nil
}

// RunFigure7Intervals reproduces Figure 7 (c)-(d): scaling with the number
// of intervals, 1000 queries on IMDB.
func (r *Runner) RunFigure7Intervals(ctx context.Context, w io.Writer, intervalCounts []int, methods []Method) ([]ScalingPoint, error) {
	if len(intervalCounts) == 0 {
		intervalCounts = []int{5, 10, 15, 20, 25}
	}
	n := 1000 / r.Scale.QueryDivisor
	if n < 50 {
		n = 50
	}
	fmt.Fprintf(w, "=== Figure 7 (c,d): time/distance vs #intervals | IMDB, Redset_Cost, %d queries ===\n", n)
	var out []ScalingPoint
	b, _ := ByName("Redset_Cost_Hard")
	for _, k := range intervalCounts {
		b.NumIntervals = k
		target := realworld.RedsetCost(0, r.Scale.RangeHi, k, n)
		for _, m := range methods {
			res, err := r.runMethodOn(ctx, m, b, IMDB, target.Clone(), engine.PlanCost)
			if err != nil {
				return out, err
			}
			out = append(out, ScalingPoint{m, k, res.E2ETime, res.FinalDistance})
			fmt.Fprintf(w, "intervals=%-4d %-24s time=%-10s final_distance=%-8.1f evals=%-7d projected@100ms/eval=%s\n",
				k, m, res.E2ETime.Round(time.Millisecond), res.FinalDistance, res.Evaluations,
				res.ProjectedE2E().Round(time.Second))
		}
	}
	return out, nil
}

// RewriteCurve is Figure 8(a): cumulative spec-correct and syntax-correct
// template counts after each rewrite attempt.
type RewriteCurve struct {
	Attempts  []int // x axis: 0..k
	SpecOK    []int
	SyntaxOK  []int
	Total     int
	FinalGood int
}

// RunFigure8Rewrite reproduces Figure 8(a): generate the 24 Redset-spec
// templates on IMDB with the hallucinating oracle and track how many are
// specification- and syntax-correct after each rewrite attempt.
func (r *Runner) RunFigure8Rewrite(ctx context.Context, w io.Writer) (RewriteCurve, error) {
	db := r.DB(IMDB)
	oracle := llm.NewSim(llm.SimOptions{Seed: r.Seed})
	gen := generator.New(db, oracle, generator.Options{Seed: r.Seed})
	specs := r.Specs()
	maxAttempt := 0
	type state struct{ specAt, syntaxAt int } // first attempt at which OK
	var states []state
	for _, s := range specs {
		res, err := gen.Generate(ctx, s)
		if err != nil {
			return RewriteCurve{}, err
		}
		st := state{specAt: -1, syntaxAt: -1}
		for _, tr := range res.Trace {
			if tr.SpecOK && st.specAt < 0 {
				st.specAt = tr.Attempt
			}
			if tr.SyntaxOK && st.syntaxAt < 0 {
				st.syntaxAt = tr.Attempt
			}
			if tr.Attempt > maxAttempt {
				maxAttempt = tr.Attempt
			}
		}
		states = append(states, st)
	}
	curve := RewriteCurve{Total: len(states)}
	for a := 0; a <= maxAttempt; a++ {
		sOK, xOK := 0, 0
		for _, st := range states {
			if st.specAt >= 0 && st.specAt <= a {
				sOK++
			}
			if st.syntaxAt >= 0 && st.syntaxAt <= a {
				xOK++
			}
		}
		curve.Attempts = append(curve.Attempts, a)
		curve.SpecOK = append(curve.SpecOK, sOK)
		curve.SyntaxOK = append(curve.SyntaxOK, xOK)
	}
	last := len(curve.Attempts) - 1
	if last >= 0 && curve.SpecOK[last] == curve.Total && curve.SyntaxOK[last] == curve.Total {
		curve.FinalGood = curve.Total
	} else if last >= 0 {
		curve.FinalGood = min(curve.SpecOK[last], curve.SyntaxOK[last])
	}
	fmt.Fprintf(w, "=== Figure 8(a): rewrite analysis | IMDB, %d Redset templates ===\n", curve.Total)
	fmt.Fprintf(w, "%-8s %-14s %-14s\n", "attempt", "spec-correct", "syntax-correct")
	for i, a := range curve.Attempts {
		fmt.Fprintf(w, "%-8d %-14d %-14d\n", a, curve.SpecOK[i], curve.SyntaxOK[i])
	}
	return curve, nil
}

// AblationSeries is one Figure 8(b) convergence curve.
type AblationSeries struct {
	Variant    string
	Trajectory []pipeline.ProgressPoint
	Final      float64
	E2E        time.Duration
}

// RunFigure8Ablation reproduces Figure 8(b): SQLBarber vs No-Refine-Prune vs
// Naive-Search on IMDB with the Redset_Cost distribution.
func (r *Runner) RunFigure8Ablation(ctx context.Context, w io.Writer) ([]AblationSeries, error) {
	db := r.DB(IMDB)
	b, _ := ByName("Redset_Cost_Hard")
	target := b.Target(0, r.Scale.RangeHi, r.Scale.QueryDivisor)
	// Each variant is one Ablations value; its String() is the exact label
	// the paper's legend (and this table) uses.
	variants := []pipeline.Ablations{
		{},
		{DisableRefine: true},
		{NaiveSearch: true},
	}
	fmt.Fprintf(w, "=== Figure 8(b): convergence | IMDB, Redset_Cost, %d queries ===\n", target.Total())
	var out []AblationSeries
	for _, a := range variants {
		p, err := pipeline.New(db, llm.NewSim(llm.SimOptions{Seed: r.Seed}), r.Specs(), target.Clone(),
			pipeline.WithSeed(r.Seed),
			pipeline.WithCostKind(engine.PlanCost),
			pipeline.WithAblations(a),
		)
		if err != nil {
			return out, err
		}
		res, err := p.Run(ctx)
		if err != nil {
			return out, err
		}
		series := AblationSeries{Variant: a.String(), Trajectory: res.Trajectory, Final: res.Distance, E2E: res.Elapsed}
		out = append(out, series)
		fmt.Fprintf(w, "%-18s time=%-12s final_distance=%-8.1f dbcalls=%-7d projected@100ms/eval=%s (trajectory: %d points)\n",
			a.String(), res.Elapsed.Round(time.Millisecond), res.Distance, res.DBCalls,
			(time.Duration(res.DBCalls) * 100 * time.Millisecond).Round(time.Second), len(series.Trajectory))
	}
	return out, nil
}

// CostRow is one Table 2 row.
type CostRow struct {
	Benchmark    string
	TokensK      float64
	NumTemplates int
	CostUSD      float64
}

// RunTable2 reproduces Table 2: token usage, template counts, and monetary
// cost (at o3-mini prices) of SQLBarber on IMDB for three benchmarks.
func (r *Runner) RunTable2(ctx context.Context, w io.Writer) ([]CostRow, error) {
	db := r.DB(IMDB)
	names := []string{"uniform", "Redset_Cost_Medium", "Redset_Cost_Hard"}
	fmt.Fprintf(w, "=== Table 2: SQLBarber token usage and cost on IMDB ===\n")
	fmt.Fprintf(w, "%-22s %-12s %-15s %-10s\n", "Benchmark", "Tokens (K)", "#SQL Templates", "Cost (USD)")
	var rows []CostRow
	for _, name := range names {
		b, err := ByName(name)
		if err != nil {
			return rows, err
		}
		oracle := llm.NewSim(llm.SimOptions{Seed: r.Seed})
		p, err := pipeline.New(db, oracle, r.Specs(), b.Target(0, r.Scale.RangeHi, r.Scale.QueryDivisor),
			pipeline.WithSeed(r.Seed),
			pipeline.WithCostKind(engine.PlanCost),
		)
		if err != nil {
			return rows, err
		}
		res, err := p.Run(ctx)
		if err != nil {
			return rows, err
		}
		row := CostRow{
			Benchmark:    name,
			TokensK:      float64(oracle.Ledger().TotalTokens()) / 1000,
			NumTemplates: len(res.Templates),
			CostUSD:      oracle.Ledger().CostUSD(),
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-22s %-12.0f %-15d %-10.2f\n", row.Benchmark, row.TokensK, row.NumTemplates, row.CostUSD)
	}
	return rows, nil
}

// PrintTable1 renders the benchmark overview exactly as Table 1.
func PrintTable1(w io.Writer) {
	fmt.Fprintf(w, "=== Table 1: Overview of Benchmarks ===\n")
	fmt.Fprintf(w, "%-10s %-24s %-14s %-9s %-10s\n", "Source", "Distribution", "Cost Type", "#Queries", "#Intervals")
	for _, b := range Table1() {
		kind := "Cardinality"
		if b.CostKind == engine.PlanCost {
			kind = "Execution Time"
		}
		if b.Source == "Synthetic" {
			kind = "Both"
		}
		fmt.Fprintf(w, "%-10s %-24s %-14s %-9d %-10d\n", b.Source, b.Name, kind, b.NumQueries, b.NumIntervals)
	}
}

// SortScaling orders scaling points by (X, method) for stable reporting.
func SortScaling(points []ScalingPoint) {
	sort.SliceStable(points, func(i, j int) bool {
		if points[i].X != points[j].X {
			return points[i].X < points[j].X
		}
		return points[i].Method < points[j].Method
	})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
