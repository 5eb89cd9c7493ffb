// Command benchmarks reruns the paper's experiments (Figures 5-8, Tables
// 1-2) at a chosen scale and prints paper-style result rows.
//
// Usage:
//
//	benchmarks -exp all                     # everything, quick scale
//	benchmarks -exp fig5 -scale full        # Figure 5 at paper scale
//	benchmarks -exp fig7queries -methods SQLBarber,HillClimbing-priority
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"sqlbarber/internal/benchmarks"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table1|fig5|fig6|fig7queries|fig7intervals|fig8a|fig8b|table2|analyzer|all")
		scale   = flag.String("scale", "quick", "scale: quick|full")
		seed    = flag.Int64("seed", 1, "random seed")
		methods = flag.String("methods", "", "comma-separated method subset (default: all five)")
		csvDir  = flag.String("csvdir", "", "when set, also write plot-ready CSV files to this directory")
	)
	flag.Parse()
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "creating %s: %v\n", *csvDir, err)
			os.Exit(1)
		}
	}

	sc := benchmarks.Quick
	if *scale == "full" {
		sc = benchmarks.Full
	}
	ms := benchmarks.AllMethods
	if *methods != "" {
		ms = nil
		for _, name := range strings.Split(*methods, ",") {
			ms = append(ms, benchmarks.Method(strings.TrimSpace(name)))
		}
	}
	r := benchmarks.NewRunner(sc, *seed)
	w := os.Stdout
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	known := false
	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		known = true
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Fprintln(w)
	}

	writeCSV := func(name string, fn func(f *os.File) error) error {
		if *csvDir == "" {
			return nil
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return fn(f)
	}

	run("table1", func() error { benchmarks.PrintTable1(w); return nil })
	run("fig5", func() error {
		results, err := r.RunFigure5(ctx, w, ms)
		if err != nil {
			return err
		}
		if err := writeCSV("fig5_summary.csv", func(f *os.File) error {
			return benchmarks.WriteSummaryCSV(f, results)
		}); err != nil {
			return err
		}
		return writeCSV("fig5_trajectories.csv", func(f *os.File) error {
			return benchmarks.WriteTrajectoryCSV(f, results)
		})
	})
	run("fig6", func() error {
		results, err := r.RunFigure6(ctx, w, ms)
		if err != nil {
			return err
		}
		if err := writeCSV("fig6_summary.csv", func(f *os.File) error {
			return benchmarks.WriteSummaryCSV(f, results)
		}); err != nil {
			return err
		}
		return writeCSV("fig6_trajectories.csv", func(f *os.File) error {
			return benchmarks.WriteTrajectoryCSV(f, results)
		})
	})
	run("fig7queries", func() error {
		counts := []int{50, 500, 5000}
		if sc.Name == "quick" {
			counts = []int{25, 100, 400}
		}
		pts, err := r.RunFigure7Queries(ctx, w, counts, figure7Methods(ms))
		if err != nil {
			return err
		}
		return writeCSV("fig7_queries.csv", func(f *os.File) error {
			return benchmarks.WriteScalingCSV(f, "queries", pts)
		})
	})
	run("fig7intervals", func() error {
		pts, err := r.RunFigure7Intervals(ctx, w, nil, figure7Methods(ms))
		if err != nil {
			return err
		}
		return writeCSV("fig7_intervals.csv", func(f *os.File) error {
			return benchmarks.WriteScalingCSV(f, "intervals", pts)
		})
	})
	run("fig8a", func() error {
		curve, err := r.RunFigure8Rewrite(ctx, w)
		if err != nil {
			return err
		}
		return writeCSV("fig8a_rewrites.csv", func(f *os.File) error {
			return benchmarks.WriteRewriteCSV(f, curve)
		})
	})
	run("fig8b", func() error { _, err := r.RunFigure8Ablation(ctx, w); return err })
	run("table2", func() error { _, err := r.RunTable2(ctx, w); return err })
	run("analyzer", func() error { _, err := r.RunAnalyzerSavings(ctx, w); return err })
	if !known {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// figure7Methods reduces to the three-series legend of Figure 7
// (HillClimbing, LearnedSQLGen, SQLBarber — priority heuristic).
func figure7Methods(ms []benchmarks.Method) []benchmarks.Method {
	if len(ms) != len(benchmarks.AllMethods) {
		return ms
	}
	return []benchmarks.Method{
		benchmarks.HillClimbPrio,
		benchmarks.LearnedSQLPrio,
		benchmarks.SQLBarber,
	}
}
