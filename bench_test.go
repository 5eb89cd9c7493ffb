// Package sqlbarber's root benchmark suite regenerates every table and
// figure of the paper's evaluation (§6) at a reduced, CI-friendly scale and
// reports the headline numbers (final Wasserstein distance, DBMS
// evaluations) as benchmark metrics. Full-scale runs go through
// cmd/benchmarks -scale full; EXPERIMENTS.md records paper-vs-measured.
package sqlbarber

import (
	"context"
	"io"
	"testing"

	"sqlbarber/internal/benchmarks"
	"sqlbarber/internal/engine"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/pipeline"
	"sqlbarber/internal/realworld"
	"sqlbarber/internal/refine"
	"sqlbarber/internal/search"
	"sqlbarber/internal/stats"
)

// benchScale is the scale all root benchmarks run at.
func benchScale() benchmarks.Scale {
	return benchmarks.Scale{Name: "bench", SF: 0.2, RangeHi: 1000, QueryDivisor: 20, BaselineEvalsPerQuery: 10, LibrarySize: 150}
}

// BenchmarkTable1Benchmarks regenerates Table 1: constructing all ten
// benchmark target distributions.
func BenchmarkTable1Benchmarks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bench := range benchmarks.Table1() {
			t := bench.Target(0, 10000, 1)
			if t.Total() != bench.NumQueries {
				b.Fatalf("%s: target total %d != %d", bench.Name, t.Total(), bench.NumQueries)
			}
		}
	}
}

// runPerfFigure executes a Figure 5/6-style panel (one benchmark, one
// dataset, all five methods) and reports SQLBarber's final distance and the
// distance gap to the best baseline.
func runPerfFigure(b *testing.B, benchName string, ds benchmarks.Dataset, kind engine.CostKind) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := benchmarks.NewRunner(benchScale(), 1)
		bench, err := benchmarks.ByName(benchName)
		if err != nil {
			b.Fatal(err)
		}
		bench.CostKind = kind
		var barber, bestBase float64
		bestBase = -1
		for _, m := range benchmarks.AllMethods {
			res, err := r.RunMethod(context.Background(), m, bench, ds)
			if err != nil {
				b.Fatalf("%s: %v", m, err)
			}
			if m == benchmarks.SQLBarber {
				barber = res.FinalDistance
			} else if bestBase < 0 || res.FinalDistance < bestBase {
				bestBase = res.FinalDistance
			}
		}
		b.ReportMetric(barber, "sqlbarber_distance")
		b.ReportMetric(bestBase, "best_baseline_distance")
	}
}

// BenchmarkFigure5 regenerates the Figure 5 panels (cardinality targets);
// one sub-benchmark per benchmark x dataset.
func BenchmarkFigure5(b *testing.B) {
	for _, bench := range benchmarks.CardinalityBenchmarks() {
		for _, ds := range []benchmarks.Dataset{benchmarks.TPCH, benchmarks.IMDB} {
			b.Run(bench.Name+"/"+string(ds), func(b *testing.B) {
				runPerfFigure(b, bench.Name, ds, engine.Cardinality)
			})
		}
	}
}

// BenchmarkFigure6 regenerates the Figure 6 panels (plan-cost targets).
func BenchmarkFigure6(b *testing.B) {
	for _, bench := range benchmarks.CostBenchmarks() {
		for _, ds := range []benchmarks.Dataset{benchmarks.TPCH, benchmarks.IMDB} {
			b.Run(bench.Name+"/"+string(ds), func(b *testing.B) {
				runPerfFigure(b, bench.Name, ds, engine.PlanCost)
			})
		}
	}
}

// BenchmarkFigure7Queries regenerates Figure 7 (a)-(b): scaling with the
// number of queries.
func BenchmarkFigure7Queries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchmarks.NewRunner(benchScale(), 1)
		pts, err := r.RunFigure7Queries(context.Background(), io.Discard, []int{25, 50, 100},
			[]benchmarks.Method{benchmarks.HillClimbPrio, benchmarks.LearnedSQLPrio, benchmarks.SQLBarber})
		if err != nil {
			b.Fatal(err)
		}
		benchmarks.SortScaling(pts)
		b.ReportMetric(float64(len(pts)), "points")
	}
}

// BenchmarkFigure7Intervals regenerates Figure 7 (c)-(d): scaling with the
// number of intervals.
func BenchmarkFigure7Intervals(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchmarks.NewRunner(benchScale(), 1)
		pts, err := r.RunFigure7Intervals(context.Background(), io.Discard, []int{5, 10, 15},
			[]benchmarks.Method{benchmarks.HillClimbPrio, benchmarks.LearnedSQLPrio, benchmarks.SQLBarber})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(pts)), "points")
	}
}

// BenchmarkFigure8Rewrite regenerates Figure 8(a): the rewrite analysis of
// Algorithm 1's self-correction loop.
func BenchmarkFigure8Rewrite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchmarks.NewRunner(benchScale(), 1)
		curve, err := r.RunFigure8Rewrite(context.Background(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		last := len(curve.Attempts) - 1
		b.ReportMetric(float64(curve.SpecOK[0]), "spec_ok_initial")
		b.ReportMetric(float64(curve.SpecOK[last]), "spec_ok_final")
		b.ReportMetric(float64(curve.SyntaxOK[0]), "syntax_ok_initial")
		b.ReportMetric(float64(curve.SyntaxOK[last]), "syntax_ok_final")
	}
}

// BenchmarkFigure8Ablation regenerates Figure 8(b): SQLBarber vs
// No-Refine-Prune vs Naive-Search convergence.
func BenchmarkFigure8Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchmarks.NewRunner(benchScale(), 1)
		series, err := r.RunFigure8Ablation(context.Background(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			switch s.Variant {
			case "SQLBarber":
				b.ReportMetric(s.Final, "full_distance")
			case "No-Refine-Prune":
				b.ReportMetric(s.Final, "norefine_distance")
			case "Naive-Search":
				b.ReportMetric(s.Final, "naive_distance")
			}
		}
	}
}

// BenchmarkTable2Cost regenerates Table 2: token usage, template counts,
// and monetary cost on IMDB.
func BenchmarkTable2Cost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchmarks.NewRunner(benchScale(), 1)
		rows, err := r.RunTable2(context.Background(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatalf("Table 2 has %d rows, want 3", len(rows))
		}
		b.ReportMetric(rows[len(rows)-1].TokensK, "tokens_k")
		b.ReportMetric(rows[len(rows)-1].CostUSD*100, "cost_cents")
	}
}

// ---- Design-choice ablations (DESIGN.md §4) ----

// ablationSeeds averages out per-seed noise in the small ablation setups.
var ablationSeeds = []int64{1, 2, 3, 4, 5}

// runAblation runs the pipeline with the ablation's option across the
// ablation seeds and reports mean distance plus a mean secondary metric.
func runAblation(b *testing.B, metricName string, opt pipeline.Option, metric func(*pipeline.Result) float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		var distSum, metricSum float64
		for _, seed := range ablationSeeds {
			p, err := pipeline.New(engine.OpenTPCH(seed, 0.2), llm.NewSim(llm.SimOptions{Seed: seed}),
				realworld.RedsetSpecs(seed)[:16], stats.Uniform(0, 1200, 6, 90),
				pipeline.WithSeed(seed), pipeline.WithCostKind(engine.Cardinality), opt)
			if err != nil {
				b.Fatal(err)
			}
			res, err := p.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			distSum += res.Distance
			metricSum += metric(res)
		}
		n := float64(len(ablationSeeds))
		b.ReportMetric(distSum/n, "mean_distance")
		b.ReportMetric(metricSum/n, metricName)
	}
}

// BenchmarkAblationLHS compares Latin Hypercube vs independent uniform
// profiling samples (mean over seeds).
func BenchmarkAblationLHS(b *testing.B) {
	for _, mode := range []struct {
		name string
		ind  bool
	}{{"LHS", false}, {"Independent", true}} {
		b.Run(mode.name, func(b *testing.B) {
			runAblation(b, "mean_db_calls",
				pipeline.WithAblations(pipeline.Ablations{IndependentSampling: mode.ind}),
				func(r *pipeline.Result) float64 { return float64(r.DBCalls) })
		})
	}
}

// BenchmarkAblationHistory compares two-phase (history-aware) refinement
// against phase-1-only refinement (mean over seeds).
func BenchmarkAblationHistory(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts refine.Options
	}{{"WithHistory", refine.Options{}}, {"Phase1Only", refine.Options{K2: 1, M2: 1}}} {
		b.Run(mode.name, func(b *testing.B) {
			runAblation(b, "mean_accepted_templates",
				pipeline.WithRefineOptions(mode.opts),
				func(r *pipeline.Result) float64 { return float64(r.RefineStats.Accepted) })
		})
	}
}

// BenchmarkAblationCloseness compares closeness-weighted template selection
// in Algorithm 3 against a wide uniform sample (achieved by inflating the
// sample size so weighting stops mattering); mean over seeds.
func BenchmarkAblationCloseness(b *testing.B) {
	for _, mode := range []struct {
		name   string
		sample int
	}{{"Weighted10", 0 /* default 10 */}, {"AllTemplates", 1000}} {
		b.Run(mode.name, func(b *testing.B) {
			runAblation(b, "mean_search_evals",
				pipeline.WithSearchOptions(search.Options{SampleSize: mode.sample}),
				func(r *pipeline.Result) float64 { return float64(r.SearchStats.Evaluations) })
		})
	}
}

// ---- Substrate micro-benchmarks ----

// BenchmarkEngineExplain measures the optimizer round-trip SQLBarber's inner
// loop depends on.
func BenchmarkEngineExplain(b *testing.B) {
	db := engine.OpenTPCH(1, 0.2)
	sql := "SELECT l.l_orderkey, SUM(l.l_extendedprice) FROM lineitem AS l JOIN orders AS o ON l.l_orderkey = o.o_orderkey WHERE l.l_quantity > 25 AND o.o_totalprice < 50000 GROUP BY l.l_orderkey"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Explain(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineExecute measures full query execution.
func BenchmarkEngineExecute(b *testing.B) {
	db := engine.OpenTPCH(1, 0.1)
	sql := "SELECT o_orderstatus, COUNT(*) FROM orders WHERE o_totalprice > 10000 GROUP BY o_orderstatus"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Execute(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWasserstein measures the distance computation on a 20-interval
// histogram.
func BenchmarkWasserstein(b *testing.B) {
	ivs := stats.SplitRange(0, 10000, 20)
	a := make([]int, 20)
	c := make([]int, 20)
	for i := range a {
		a[i] = i * 7 % 13
		c[i] = (i*3 + 1) % 11
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.Wasserstein(ivs, a, c)
	}
}
