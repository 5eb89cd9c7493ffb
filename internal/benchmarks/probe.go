package benchmarks

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/prand"
	"sqlbarber/internal/sqltemplate"
	"sqlbarber/internal/sqltypes"
)

// probeTemplate is one templated statement in the probe microbenchmark's
// workload mix, with a deterministic per-probe value schedule.
type probeTemplate struct {
	Name string
	SQL  string
	// vals derives the probe-i binding from a private prand stream, so the
	// schedule is identical across arms, goroutine counts, and runs.
	vals func(seed int64, i int) map[string]sqltypes.Value
}

// probeTemplates is the benchmark's workload mix: a filtered aggregate, a
// join with filters on both sides, and a range predicate — the shapes §5.1
// profiling sweeps and §5.3 BO waves probe in bulk.
var probeTemplates = []probeTemplate{
	{
		Name: "lineitem-agg",
		SQL: "SELECT l_returnflag, SUM(l_extendedprice) FROM lineitem " +
			"WHERE l_quantity >= {p_1} AND l_extendedprice < {p_2} GROUP BY l_returnflag",
		vals: func(seed int64, i int) map[string]sqltypes.Value {
			rng := prand.New(seed, prand.StageProfile, int64(i))
			return map[string]sqltypes.Value{
				"p_1": sqltypes.NewInt(1 + rng.Int63n(50)),
				"p_2": sqltypes.NewFloat(100 + rng.Float64()*90000),
			}
		},
	},
	{
		Name: "orders-join",
		SQL: "SELECT o.o_orderpriority, COUNT(*) FROM orders AS o " +
			"JOIN customer AS c ON o.o_custkey = c.c_custkey " +
			"WHERE o.o_totalprice > {p_total} AND c.c_acctbal < {p_bal} " +
			"GROUP BY o.o_orderpriority",
		vals: func(seed int64, i int) map[string]sqltypes.Value {
			rng := prand.New(seed, prand.StageOracle, int64(i))
			return map[string]sqltypes.Value{
				"p_total": sqltypes.NewFloat(1000 + rng.Float64()*400000),
				"p_bal":   sqltypes.NewFloat(-500 + rng.Float64()*9000),
			}
		},
	},
	{
		Name: "lineitem-range",
		SQL: "SELECT l_shipmode, COUNT(*) FROM lineitem " +
			"WHERE l_shipdate BETWEEN {p_lo} AND {p_hi} AND l_discount <= {p_disc} " +
			"GROUP BY l_shipmode",
		vals: func(seed int64, i int) map[string]sqltypes.Value {
			rng := prand.New(seed, prand.StageSearch, int64(i))
			lo := 19920101 + rng.Int63n(30000)
			return map[string]sqltypes.Value{
				"p_lo":   sqltypes.NewInt(lo),
				"p_hi":   sqltypes.NewInt(lo + 10000),
				"p_disc": sqltypes.NewFloat(rng.Float64() * 0.1),
			}
		},
	},
}

// ProbePoint is one (goroutines, arm timings) row of the probe experiment.
type ProbePoint struct {
	Goroutines     int     `json:"goroutines"`
	ReparseNS      int64   `json:"reparse_ns"`
	CompiledNS     int64   `json:"compiled_ns"`
	ReparsePerSec  float64 `json:"reparse_probes_per_sec"`
	CompiledPerSec float64 `json:"compiled_probes_per_sec"`
	Speedup        float64 `json:"speedup"`
	// CompiledNSPerProbe and CompiledAllocsPerProbe are the compiled arm's
	// absolute cost per probe: its wall time, and the process's heap
	// allocations over the arm, divided by the probe count.
	CompiledNSPerProbe     float64 `json:"compiled_ns_per_probe"`
	CompiledAllocsPerProbe float64 `json:"compiled_allocs_per_probe"`
}

// ProbeBenchResult is the JSON artifact -exp probe writes (BENCH_probe.json).
type ProbeBenchResult struct {
	Probes    int          `json:"probes_per_arm"`
	Templates int          `json:"templates"`
	Hash      string       `json:"probe_hash"`
	Points    []ProbePoint `json:"points"`
}

// probeHash fingerprints a full probe sweep's costs in schedule order, the
// same way workloadHash fingerprints a workload: any cost divergence between
// arms or goroutine counts changes the hash.
func probeHash(costs []float64) string {
	h := sha256.New()
	for _, c := range costs {
		fmt.Fprintf(h, "%.9g\n", c)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// probeSchedule precomputes the full deterministic binding schedule over a
// template mix, indexed [probe][template], and the same bindings rendered
// into SQL for the re-parse arm. Generating and rendering the bindings
// outside the timed region keeps both arms' measurements about probe
// serving, not about drawing random values or formatting literals.
func probeSchedule(templates []probeTemplate, seed int64, probes int) ([][]map[string]sqltypes.Value, [][]string, error) {
	parsed := make([]*sqltemplate.Template, len(templates))
	for t, tmpl := range templates {
		pt, err := sqltemplate.Parse(tmpl.SQL)
		if err != nil {
			return nil, nil, fmt.Errorf("benchmarks: template %s: %w", tmpl.Name, err)
		}
		parsed[t] = pt
	}
	sched := make([][]map[string]sqltypes.Value, probes)
	sqls := make([][]string, probes)
	for i := range sched {
		sched[i] = make([]map[string]sqltypes.Value, len(templates))
		sqls[i] = make([]string, len(templates))
		for t, tmpl := range templates {
			sched[i][t] = tmpl.vals(seed, i)
			sql, err := parsed[t].Instantiate(sched[i][t])
			if err != nil {
				return nil, nil, fmt.Errorf("benchmarks: template %s probe %d: %w", tmpl.Name, i, err)
			}
			sqls[i][t] = sql
		}
	}
	return sched, sqls, nil
}

// runProbeArm executes a probes x templates schedule across g goroutines,
// each owning a contiguous slice of the probe index range, writing costs into
// fixed slots so the result is schedule-ordered regardless of interleaving.
// cost is the per-probe call under test, given the probe and template index.
func runProbeArm(ctx context.Context, g, probes, templates int,
	cost func(ctx context.Context, i, t int) (float64, error)) ([]float64, time.Duration, error) {
	costs := make([]float64, probes*templates)
	errs := make([]error, g)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g; w++ {
		lo := w * probes / g
		hi := (w + 1) * probes / g
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				for t := 0; t < templates; t++ {
					c, err := cost(ctx, i, t)
					if err != nil {
						errs[w] = err
						return
					}
					costs[i*templates+t] = c
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return costs, elapsed, nil
}

// RunProbeBench benchmarks compiled parametric probing (Prepared.Cost:
// lock-free EstimateWith through the compiled skeleton) against the re-parse
// baseline (DB.Cost on the binding rendered into SQL: lex, parse, bind and
// plan per probe) at several goroutine counts. Both arms run the identical
// deterministic probe schedule over a three-template TPC-H mix; the
// benchmark verifies bit-identical costs (per probe and via a sweep hash),
// identical DBMS-evaluation counter movement, and that the compiled arm wins
// at every level. When jsonPath is non-empty the result table is also
// written there as JSON (BENCH_probe.json).
func (r *Runner) RunProbeBench(ctx context.Context, w io.Writer, jsonPath string, probes int) (*ProbeBenchResult, error) {
	if probes <= 0 {
		probes = 2000
	}
	db := TPCH.Open(r.Seed, r.Scale.SF)
	preps := make([]*engine.Prepared, len(probeTemplates))
	for i, tmpl := range probeTemplates {
		p, err := db.Prepare(tmpl.SQL)
		if err != nil {
			return nil, fmt.Errorf("benchmarks: probe template %s: %w", tmpl.Name, err)
		}
		preps[i] = p
	}
	sched, sqls, err := probeSchedule(probeTemplates, r.Seed, probes)
	if err != nil {
		return nil, err
	}
	compiled := func(ctx context.Context, i, t int) (float64, error) {
		return preps[t].Cost(ctx, sched[i][t], engine.Cardinality)
	}
	reparse := func(ctx context.Context, i, t int) (float64, error) {
		return db.Cost(ctx, sqls[i][t], engine.Cardinality)
	}

	res := &ProbeBenchResult{Probes: probes * len(probeTemplates), Templates: len(probeTemplates)}
	fmt.Fprintf(w, "=== Probe microbenchmark | %d templates x %d probes on TPC-H sf=%.1f ===\n",
		len(probeTemplates), probes, r.Scale.SF)
	for _, g := range []int{1, 2, 8} {
		before := db.ExplainCalls()
		reparseCosts, reparseTime, err := runProbeArm(ctx, g, probes, len(probeTemplates), reparse)
		if err != nil {
			return nil, err
		}
		reparseCalls := db.ExplainCalls() - before
		before = db.ExplainCalls()
		mallocsBefore := mallocs()
		compiledCosts, compiledTime, err := runProbeArm(ctx, g, probes, len(probeTemplates), compiled)
		if err != nil {
			return nil, err
		}
		compiledAllocs := mallocs() - mallocsBefore
		compiledCalls := db.ExplainCalls() - before
		if compiledCalls != reparseCalls {
			return nil, fmt.Errorf("benchmarks: probe counter parity broken at g=%d: compiled moved explain_calls by %d, reparse by %d",
				g, compiledCalls, reparseCalls)
		}
		for i := range reparseCosts {
			if compiledCosts[i] != reparseCosts[i] {
				return nil, fmt.Errorf("benchmarks: probe cost diverged at g=%d index %d: compiled %.9g != reparse %.9g",
					g, i, compiledCosts[i], reparseCosts[i])
			}
		}
		hash := probeHash(compiledCosts)
		if res.Hash == "" {
			res.Hash = hash
		} else if hash != res.Hash {
			return nil, fmt.Errorf("benchmarks: probe hash drifted at g=%d: %s != %s", g, hash, res.Hash)
		}
		total := float64(probes * len(probeTemplates))
		pt := ProbePoint{
			Goroutines:     g,
			ReparseNS:      reparseTime.Nanoseconds(),
			CompiledNS:     compiledTime.Nanoseconds(),
			ReparsePerSec:  total / reparseTime.Seconds(),
			CompiledPerSec: total / compiledTime.Seconds(),
		}
		pt.Speedup = pt.CompiledPerSec / pt.ReparsePerSec
		pt.CompiledNSPerProbe = float64(compiledTime.Nanoseconds()) / total
		pt.CompiledAllocsPerProbe = float64(compiledAllocs) / total
		res.Points = append(res.Points, pt)
		fmt.Fprintf(w, "goroutines=%-3d reparse=%-10.0f probes/s  compiled=%-10.0f probes/s  speedup=%.2fx  compiled %.0f ns/probe %.1f allocs/probe\n",
			g, pt.ReparsePerSec, pt.CompiledPerSec, pt.Speedup, pt.CompiledNSPerProbe, pt.CompiledAllocsPerProbe)
	}
	fmt.Fprintf(w, "all arms bit-identical: probe hash %s, counter parity held\n", res.Hash)
	for _, pt := range res.Points {
		if pt.Speedup <= 1 {
			return nil, fmt.Errorf("benchmarks: compiled probing did not beat re-parsing at g=%d (%.2fx)",
				pt.Goroutines, pt.Speedup)
		}
	}
	return res, writeBenchJSON(w, jsonPath, res)
}

// writeBenchJSON writes a benchmark result as indented JSON to path and
// reports it on w; an empty path writes nothing.
func writeBenchJSON(w io.Writer, path string, res any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}
