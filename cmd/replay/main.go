// Command replay re-runs a previously generated workload file against a
// dataset and verifies that the measured costs still match the annotations —
// the consumer-side check a benchmarking team would run before trusting a
// workload.
//
// Usage:
//
//	sqlbarber -dataset tpch -queries 200 -out w.sql
//	replay -dataset tpch -cost cardinality -in w.sql
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/workload"
)

func main() {
	var (
		dataset  = flag.String("dataset", "tpch", "dataset: tpch|imdb")
		sf       = flag.Float64("sf", 0.5, "dataset scale factor (must match generation)")
		seed     = flag.Int64("seed", 1, "dataset seed (must match generation)")
		costKind = flag.String("cost", "cardinality", "cost metric: cardinality|plancost|rows")
		in       = flag.String("in", "", "workload file (WriteSQL format); default stdin")
		tol      = flag.Float64("tol", 0.01, "relative tolerance for cost mismatches")
	)
	flag.Parse()

	kind, err := engine.ParseCostKind(*costKind)
	if err != nil {
		fatal("-cost: %v", err)
	}
	var db *engine.DB
	switch strings.ToLower(*dataset) {
	case "imdb":
		db = engine.OpenIMDB(*seed, *sf)
	default:
		db = engine.OpenTPCH(*seed, *sf)
	}

	r := os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal("opening %s: %v", *in, err)
		}
		defer f.Close()
		r = f
	}
	queries, err := workload.ReadSQL(r)
	if err != nil {
		fatal("reading workload: %v", err)
	}
	if len(queries) == 0 {
		fatal("workload is empty")
	}

	failures, errors := 0, 0
	var maxRel float64
	for i, q := range queries {
		got, err := db.Cost(context.Background(), q.SQL, kind)
		if err != nil {
			errors++
			fmt.Fprintf(os.Stderr, "query %d fails: %v\n", i, err)
			continue
		}
		rel := relDiff(got, q.Cost)
		if rel > maxRel {
			maxRel = rel
		}
		if rel > *tol {
			failures++
			if failures <= 10 {
				fmt.Fprintf(os.Stderr, "query %d cost drift: recorded %.2f, measured %.2f\n", i, q.Cost, got)
			}
		}
	}
	fmt.Printf("replayed %d queries | errors=%d | cost drift > %.1f%%: %d | max relative drift %.2f%%\n",
		len(queries), errors, *tol*100, failures, maxRel*100)
	if errors > 0 || failures > 0 {
		os.Exit(1)
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "replay: "+format+"\n", args...)
	os.Exit(1)
}
