package engine

import (
	"testing"

	"sqlbarber/internal/plan"
	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/sqltypes"
)

// allocTemplate is a fixed measured-probe shape covering the executor's
// allocation-sensitive paths: a hash join, an uncorrelated IN subquery (hash
// set), and GROUP BY with aggregates.
const allocTemplate = "SELECT c.c_mktsegment, COUNT(*), SUM(o.o_totalprice) FROM customer AS c " +
	"JOIN orders AS o ON c.c_custkey = o.o_custkey " +
	"WHERE o.o_totalprice > {p_1} AND o.o_orderkey IN (SELECT l_orderkey FROM lineitem WHERE l_quantity > {p_2}) " +
	"GROUP BY c.c_mktsegment"

// TestSessionCostAllocationCeiling is the allocation regression gate for
// measured probes: a warm session's RowsProcessed probe must stay within a
// fixed allocation count, so per-tuple allocation cannot silently return.
// The probe allocates per output row and per group, never per scanned or
// joined tuple.
func TestSessionCostAllocationCeiling(t *testing.T) {
	db := OpenTPCH(7, 0.002)
	prep, err := db.Prepare(allocTemplate)
	if err != nil {
		t.Fatal(err)
	}
	sess := db.newSession()
	vals := map[string]sqltypes.Value{"p_1": sqltypes.NewInt(20000), "p_2": sqltypes.NewInt(20)}
	rows, err := sessionCost(sess, prep, vals, RowsProcessed)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := sessionCost(sess, prep, vals, RowsProcessed); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("RowsProcessed %v, %.0f allocs per probe", rows, allocs)
	// Measured 37 on linux/amd64 with go1.24: bindings, executor and frame
	// state, result rows, and one state and key per group. A per-tuple
	// allocation would add at least RowsProcessed (176) more.
	const ceiling = 44
	if allocs > ceiling {
		t.Fatalf("measured probe allocates %.0f times, ceiling %d", allocs, ceiling)
	}
}

// estimateSink keeps the compiled estimates below observable.
var estimateSink plan.Estimate

// TestEstimateWithAllocationCeiling is the allocation gate for estimate
// probes (Cardinality, PlanCost): a compiled EstimateWith allocates nothing
// on a subquery-free template, and only the per-probe subplan totals when
// the template nests a subquery.
func TestEstimateWithAllocationCeiling(t *testing.T) {
	db := OpenTPCH(7, 0.002)
	vals := map[string]sqltypes.Value{"p_1": sqltypes.NewInt(20000), "p_2": sqltypes.NewInt(20)}
	for _, tc := range []struct {
		name    string
		sql     string
		ceiling float64
	}{
		{"no subquery", "SELECT c.c_mktsegment, COUNT(*) FROM customer AS c " +
			"JOIN orders AS o ON c.c_custkey = o.o_custkey " +
			"WHERE o.o_totalprice > {p_1} AND c.c_acctbal BETWEEN {p_2} AND 5000 " +
			"GROUP BY c.c_mktsegment ORDER BY c.c_mktsegment LIMIT 10", 0},
		{"IN subquery", allocTemplate, 2},
	} {
		stmt, err := sqlparser.Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		cq, err := plan.Compile(db.Schema(), stmt)
		if err != nil {
			t.Fatal(err)
		}
		params, err := cq.BindVals(vals)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() { estimateSink = cq.EstimateWith(params) })
		t.Logf("%s: %.0f allocs per EstimateWith", tc.name, allocs)
		if allocs > tc.ceiling {
			t.Errorf("%s: EstimateWith allocates %.0f times, ceiling %.0f", tc.name, allocs, tc.ceiling)
		}
	}
}
