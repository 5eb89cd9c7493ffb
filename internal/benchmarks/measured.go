package benchmarks

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/prand"
	"sqlbarber/internal/sqltypes"
)

// measuredScaleSF is the fixed TPC-H scale the measured-probe benchmark runs
// at, independent of the -scale flag. Measured probes execute the statement,
// so their cost splits into a per-probe planning share and an execution share
// that grows with data volume; the benchmark isolates the planning share the
// session path eliminates, which requires plan-heavy, execution-light
// statements on a small database. At larger scales both arms converge on raw
// execution time and the experiment stops measuring anything.
const measuredScaleSF = 0.002

// measuredTemplates is the workload mix for measured probing: multi-join
// statements over the fixed-size dimension tables (region, nation, supplier)
// with uncorrelated subqueries. Each uncorrelated subquery costs the re-parse
// arm a full subplan parse and compilation per probe but executes only once
// per statement through the executor's subquery cache — exactly the
// plan-heavy/execution-light shape where per-probe re-planning dominates.
var measuredTemplates = []probeTemplate{
	{
		Name: "nation-supplier-subq2",
		SQL: "SELECT n.n_regionkey, COUNT(*), SUM(s.s_acctbal), MIN(s.s_suppkey), MAX(n.n_nationkey) " +
			"FROM nation AS n JOIN region AS r ON n.n_regionkey = r.r_regionkey " +
			"JOIN supplier AS s ON s.s_nationkey = n.n_nationkey " +
			"WHERE s.s_acctbal > {p_bal} AND n.n_nationkey <= {p_hi} " +
			"AND EXISTS (SELECT 1 FROM part WHERE p_retailprice > {p_price}) " +
			"AND s.s_suppkey IN (SELECT s2.s_suppkey FROM supplier AS s2 WHERE s2.s_acctbal > {p_min}) " +
			"GROUP BY n.n_regionkey",
		vals: func(seed int64, i int) map[string]sqltypes.Value {
			rng := prand.New(seed, prand.StageProfile, int64(i))
			return map[string]sqltypes.Value{
				"p_bal":   sqltypes.NewFloat(-500 + rng.Float64()*9000),
				"p_hi":    sqltypes.NewInt(5 + rng.Int63n(20)),
				"p_price": sqltypes.NewFloat(1000 + rng.Float64()*400000),
				"p_min":   sqltypes.NewFloat(rng.Float64() * 5000),
			}
		},
	},
	{
		Name: "nation-supplier-subq4",
		SQL: "SELECT n.n_regionkey, COUNT(*), SUM(s.s_acctbal), MIN(s.s_suppkey), MAX(n.n_nationkey) " +
			"FROM nation AS n JOIN region AS r ON n.n_regionkey = r.r_regionkey " +
			"JOIN supplier AS s ON s.s_nationkey = n.n_nationkey " +
			"WHERE s.s_acctbal > {p_bal} AND n.n_nationkey <= {p_hi} " +
			"AND EXISTS (SELECT 1 FROM part WHERE p_retailprice > {p_price}) " +
			"AND s.s_suppkey IN (SELECT s2.s_suppkey FROM supplier AS s2 WHERE s2.s_acctbal > {p_min}) " +
			"AND s.s_nationkey IN (SELECT n2.n_nationkey FROM nation AS n2 WHERE n2.n_regionkey >= {p_reg}) " +
			"AND EXISTS (SELECT 1 FROM region AS r2 WHERE r2.r_regionkey <= {p_hi}) " +
			"GROUP BY n.n_regionkey",
		vals: func(seed int64, i int) map[string]sqltypes.Value {
			rng := prand.New(seed, prand.StageSearch, int64(i))
			return map[string]sqltypes.Value{
				"p_bal":   sqltypes.NewFloat(-500 + rng.Float64()*9000),
				"p_hi":    sqltypes.NewInt(5 + rng.Int63n(20)),
				"p_price": sqltypes.NewFloat(1000 + rng.Float64()*400000),
				"p_min":   sqltypes.NewFloat(rng.Float64() * 5000),
				"p_reg":   sqltypes.NewInt(rng.Int63n(4)),
			}
		},
	},
}

// MeasuredPoint is one (goroutines, arm timings) row of the measured-probe
// experiment.
type MeasuredPoint struct {
	Goroutines    int     `json:"goroutines"`
	ReparseNS     int64   `json:"reparse_ns"`
	SessionNS     int64   `json:"session_ns"`
	ReparsePerSec float64 `json:"reparse_probes_per_sec"`
	SessionPerSec float64 `json:"session_probes_per_sec"`
	Speedup       float64 `json:"speedup"`
	// SessionNSPerProbe and SessionAllocsPerProbe are the session arm's
	// absolute cost per probe: its wall time, and the process's heap
	// allocations over the arm, divided by the probe count.
	SessionNSPerProbe     float64 `json:"session_ns_per_probe"`
	SessionAllocsPerProbe float64 `json:"session_allocs_per_probe"`
}

// MeasuredBenchResult is the JSON artifact -exp measured writes
// (BENCH_measured.json).
type MeasuredBenchResult struct {
	Probes    int             `json:"probes_per_arm"`
	Templates int             `json:"templates"`
	ScaleSF   float64         `json:"scale_sf"`
	Hash      string          `json:"probe_hash"`
	Points    []MeasuredPoint `json:"points"`
}

// mallocs reports the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// RunMeasuredBench benchmarks lock-free measured probing (Prepared.Cost with
// RowsProcessed: execute the immutable compiled skeleton under a value
// environment with a pooled session's arena) against the re-parse baseline
// (DB.Cost on the binding rendered into SQL: lex, parse, bind, plan and
// execute per probe) at several goroutine counts. Both arms run the
// identical deterministic probe schedule over a plan-heavy two-template mix
// on a fixed small TPC-H instance (see measuredScaleSF); the benchmark
// verifies bit-identical RowsProcessed costs per probe and via a sweep hash,
// identical execute-counter movement, per-probe session accounting, and that
// the session arm reaches at least 2x the baseline's throughput at 8
// goroutines. Next to that ratio each point reports the session arm's
// absolute ns and heap allocations per probe. When jsonPath is non-empty the
// result table is also written there as JSON (BENCH_measured.json).
func (r *Runner) RunMeasuredBench(ctx context.Context, w io.Writer, jsonPath string, probes int) (*MeasuredBenchResult, error) {
	if probes <= 0 {
		probes = 2000
	}
	db := TPCH.Open(r.Seed, measuredScaleSF)
	preps := make([]*engine.Prepared, len(measuredTemplates))
	for i, tmpl := range measuredTemplates {
		p, err := db.Prepare(tmpl.SQL)
		if err != nil {
			return nil, fmt.Errorf("benchmarks: measured template %s: %w", tmpl.Name, err)
		}
		preps[i] = p
	}
	sched, sqls, err := probeSchedule(measuredTemplates, r.Seed, probes)
	if err != nil {
		return nil, err
	}
	session := func(ctx context.Context, i, t int) (float64, error) {
		return preps[t].Cost(ctx, sched[i][t], engine.RowsProcessed)
	}
	reparse := func(ctx context.Context, i, t int) (float64, error) {
		return db.Cost(ctx, sqls[i][t], engine.RowsProcessed)
	}

	res := &MeasuredBenchResult{
		Probes:    probes * len(measuredTemplates),
		Templates: len(measuredTemplates),
		ScaleSF:   measuredScaleSF,
	}
	fmt.Fprintf(w, "=== Measured-probe microbenchmark | %d templates x %d probes on TPC-H sf=%.3f ===\n",
		len(measuredTemplates), probes, measuredScaleSF)
	total := int64(probes * len(measuredTemplates))
	for _, g := range []int{1, 2, 8} {
		before := db.ExecCalls()
		reparseCosts, reparseTime, err := runProbeArm(ctx, g, probes, len(measuredTemplates), reparse)
		if err != nil {
			return nil, err
		}
		reparseCalls := db.ExecCalls() - before
		before = db.ExecCalls()
		sessBefore := db.SessionProbes()
		mallocsBefore := mallocs()
		sessionCosts, sessionTime, err := runProbeArm(ctx, g, probes, len(measuredTemplates), session)
		if err != nil {
			return nil, err
		}
		sessionAllocs := mallocs() - mallocsBefore
		sessionCalls := db.ExecCalls() - before
		if sessionCalls != reparseCalls {
			return nil, fmt.Errorf("benchmarks: measured counter parity broken at g=%d: session moved exec_calls by %d, reparse by %d",
				g, sessionCalls, reparseCalls)
		}
		if moved := db.SessionProbes() - sessBefore; moved != total {
			return nil, fmt.Errorf("benchmarks: measured session accounting broken at g=%d: %d session probes for %d probes",
				g, moved, total)
		}
		for i := range reparseCosts {
			if sessionCosts[i] != reparseCosts[i] {
				return nil, fmt.Errorf("benchmarks: measured cost diverged at g=%d index %d: session %.9g != reparse %.9g",
					g, i, sessionCosts[i], reparseCosts[i])
			}
		}
		hash := probeHash(sessionCosts)
		if res.Hash == "" {
			res.Hash = hash
		} else if hash != res.Hash {
			return nil, fmt.Errorf("benchmarks: measured probe hash drifted at g=%d: %s != %s", g, hash, res.Hash)
		}
		pt := MeasuredPoint{
			Goroutines:    g,
			ReparseNS:     reparseTime.Nanoseconds(),
			SessionNS:     sessionTime.Nanoseconds(),
			ReparsePerSec: float64(total) / reparseTime.Seconds(),
			SessionPerSec: float64(total) / sessionTime.Seconds(),
		}
		pt.Speedup = pt.SessionPerSec / pt.ReparsePerSec
		pt.SessionNSPerProbe = float64(sessionTime.Nanoseconds()) / float64(total)
		pt.SessionAllocsPerProbe = float64(sessionAllocs) / float64(total)
		res.Points = append(res.Points, pt)
		fmt.Fprintf(w, "goroutines=%-3d reparse=%-10.0f probes/s  session=%-10.0f probes/s  speedup=%.2fx  session %.0f ns/probe %.1f allocs/probe\n",
			g, pt.ReparsePerSec, pt.SessionPerSec, pt.Speedup, pt.SessionNSPerProbe, pt.SessionAllocsPerProbe)
	}
	fmt.Fprintf(w, "all arms bit-identical: probe hash %s, counter parity held\n", res.Hash)
	for _, pt := range res.Points {
		if pt.Speedup <= 1 {
			return nil, fmt.Errorf("benchmarks: session probing did not beat re-parsing at g=%d (%.2fx)",
				pt.Goroutines, pt.Speedup)
		}
		if pt.Goroutines == 8 && pt.Speedup < 2 {
			return nil, fmt.Errorf("benchmarks: session probing below the 2x bar at g=8 (%.2fx)", pt.Speedup)
		}
	}
	return res, writeBenchJSON(w, jsonPath, res)
}
