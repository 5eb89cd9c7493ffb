package engine

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"sqlbarber/internal/fanout"
	"sqlbarber/internal/prand"
	"sqlbarber/internal/sqltemplate"
	"sqlbarber/internal/sqltypes"
)

// mixTemplate is one templated statement of a probe mix, with a
// deterministic per-probe value schedule: vals derives the probe-i binding
// from a private prand stream, so the schedule is identical across arms,
// goroutine counts and runs.
type mixTemplate struct {
	sql  string
	vals func(seed int64, i int) map[string]sqltypes.Value
}

// estimateMix is the estimate-probe mix: a filtered aggregate, a join with
// filters on both sides, and a range predicate — the shapes §5.1 profiling
// sweeps and §5.3 BO waves probe in bulk.
var estimateMix = []mixTemplate{
	{
		sql: "SELECT l_returnflag, SUM(l_extendedprice) FROM lineitem " +
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
		sql: "SELECT o.o_orderpriority, COUNT(*) FROM orders AS o " +
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
		sql: "SELECT l_shipmode, COUNT(*) FROM lineitem " +
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

// measuredMix is the measured-probe mix: multi-join statements over the
// fixed-size dimension tables (region, nation, supplier) with uncorrelated
// EXISTS and IN subqueries. Each subquery costs the re-parse path a full
// subplan parse and compilation per probe but executes only once per
// statement through the executor's subquery cache — the plan-heavy,
// execution-light shape where per-probe re-planning dominates.
var measuredMix = []mixTemplate{
	{
		sql: "SELECT n.n_regionkey, COUNT(*), SUM(s.s_acctbal), MIN(s.s_suppkey), MAX(n.n_nationkey) " +
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
		sql: "SELECT n.n_regionkey, COUNT(*), SUM(s.s_acctbal), MIN(s.s_suppkey), MAX(n.n_nationkey) " +
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

// mallocs reports the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// BenchmarkPreparedVsReparse is the speed gate of prepared probing
// (Prepared.Cost) against the re-parse path (the binding rendered into SQL
// and costed by DB.Cost: lex, parse, bind and plan per probe). Both arms
// cost the same deterministic schedule of 2000 probes per template at
// seed 1, split into one contiguous chunk per goroutine, at g = 1, 2 and 8:
//
//   - compiled: Cardinality over estimateMix on TPC-H SF 0.5. The compiled
//     evaluator must beat re-parsing at every g.
//   - session: RowsProcessed over measuredMix on TPC-H SF 0.002, small so
//     that planning, which the session path skips, dominates execution.
//     Session execution must beat re-parsing at every g, and by at least 2x
//     at g = 8.
//
// Each g reports the speedup next to the prepared arm's absolute ns/probe
// and allocs/probe (the process's heap allocations over the arm). The arms
// must agree bit for bit; cost parity and counter movement are pinned by
// TestPreparedCostMatchesReparse, TestPreparedCountsEvaluationsLikeCost,
// TestSessionCostMatchesReparse and TestCostBatchParallelDeterministic.
//
//	go test -run '^$' -bench '^BenchmarkPreparedVsReparse$' -benchtime 1x ./internal/engine
func BenchmarkPreparedVsReparse(b *testing.B) {
	const (
		seed   = 1
		probes = 2000
	)
	ctx := context.Background()
	for _, arm := range []struct {
		name       string
		sf         float64
		kind       CostKind
		mix        []mixTemplate
		minAtEight float64
	}{
		{"compiled", 0.5, Cardinality, estimateMix, 1},
		{"session", 0.002, RowsProcessed, measuredMix, 2},
	} {
		b.Run(arm.name, func(b *testing.B) {
			db := OpenTPCH(seed, arm.sf)
			n := probes * len(arm.mix)
			// The schedule is bound and rendered outside the timed region,
			// so both arms measure probe serving, not value drawing or
			// literal formatting.
			preps := make([]*Prepared, len(arm.mix))
			vals := make([]map[string]sqltypes.Value, n)
			sqls := make([]string, n)
			for t, tmpl := range arm.mix {
				var err error
				if preps[t], err = db.Prepare(tmpl.sql); err != nil {
					b.Fatal(err)
				}
				parsed := sqltemplate.MustParse(tmpl.sql)
				for i := range probes {
					k := i*len(arm.mix) + t
					vals[k] = tmpl.vals(seed, i)
					if sqls[k], err = parsed.Instantiate(vals[k]); err != nil {
						b.Fatal(err)
					}
				}
			}
			// sweep costs the whole schedule on g goroutines, one contiguous
			// chunk of probes each, into schedule-ordered slots.
			sweep := func(b *testing.B, g int, cost func(k int) (float64, error)) ([]float64, time.Duration) {
				costs := make([]float64, n)
				start := time.Now()
				err := fanout.Run(g, g, func(_, w int) error {
					lo, hi := w*probes/g*len(arm.mix), (w+1)*probes/g*len(arm.mix)
					for k := lo; k < hi; k++ {
						var err error
						if costs[k], err = cost(k); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				return costs, time.Since(start)
			}
			for _, g := range []int{1, 2, 8} {
				b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
					var speedup, nsPerProbe, allocsPerProbe float64
					for range b.N {
						want, reparseTime := sweep(b, g, func(k int) (float64, error) {
							return db.Cost(ctx, sqls[k], arm.kind)
						})
						before := mallocs()
						got, preparedTime := sweep(b, g, func(k int) (float64, error) {
							return preps[k%len(arm.mix)].Cost(ctx, vals[k], arm.kind)
						})
						allocsPerProbe = float64(mallocs()-before) / float64(n)
						if !slices.Equal(got, want) {
							b.Fatalf("%s costs diverged from re-parse at g=%d", arm.name, g)
						}
						speedup = float64(reparseTime) / float64(preparedTime)
						nsPerProbe = float64(preparedTime.Nanoseconds()) / float64(n)
					}
					b.ReportMetric(speedup, "speedup")
					b.ReportMetric(nsPerProbe, "ns/probe")
					b.ReportMetric(allocsPerProbe, "allocs/probe")
					if speedup <= 1 {
						b.Fatalf("%s probing did not beat re-parsing at g=%d (%.2fx)", arm.name, g, speedup)
					}
					if g == 8 && speedup < arm.minAtEight {
						b.Fatalf("%s probing %.2fx re-parsing at g=8, below the %.0fx bar", arm.name, speedup, arm.minAtEight)
					}
				})
			}
		})
	}
}
