package engine

import (
	"context"
	"slices"
	"strings"
	"testing"

	"sqlbarber/internal/sqltemplate"
	"sqlbarber/internal/sqltypes"
)

// TestPreparedCostMatchesReparse is the core equivalence guarantee of the
// prepared-template layer: for every cost kind and a value sweep covering
// negatives, floats, integral floats, and quoted strings, Prepared.Cost must
// return bit-identical costs to the re-parse path (Instantiate + DB.Cost).
// The same holds for the scheduled bindings of BenchmarkPreparedVsReparse's
// two mixes, whose joins, BETWEEN ranges and uncorrelated EXISTS and IN
// subqueries the sweep does not reach, and each measured probe moves
// SessionProbes by exactly one.
func TestPreparedCostMatchesReparse(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	tmplSQL := "SELECT l_returnflag, SUM(l_extendedprice) FROM lineitem " +
		"WHERE l_quantity >= {p_1} AND l_extendedprice < {p_2} AND l_returnflag = {p_3} " +
		"GROUP BY l_returnflag"
	tmpl := sqltemplate.MustParse(tmplSQL)
	prep, err := db.Prepare(tmplSQL)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	sweeps := []map[string]sqltypes.Value{
		{"p_1": sqltypes.NewInt(10), "p_2": sqltypes.NewFloat(50000.5), "p_3": sqltypes.NewString("A")},
		{"p_1": sqltypes.NewInt(-5), "p_2": sqltypes.NewFloat(-1.25), "p_3": sqltypes.NewString("N")},
		{"p_1": sqltypes.NewFloat(25), "p_2": sqltypes.NewFloat(1e5), "p_3": sqltypes.NewString("R")},
		{"p_1": sqltypes.NewFloat(-3.75), "p_2": sqltypes.NewFloat(0.30000000000000004), "p_3": sqltypes.NewString("it''s")},
		{"p_1": sqltypes.NewInt(0), "p_2": sqltypes.NewFloat(5e6), "p_3": sqltypes.NewString("")},
	}
	kinds := []CostKind{Cardinality, PlanCost, RowsProcessed}
	for i, vals := range sweeps {
		sql, err := tmpl.Instantiate(vals)
		if err != nil {
			t.Fatalf("sweep %d: instantiate: %v", i, err)
		}
		for _, kind := range kinds {
			want, err := db.Cost(ctx, sql, kind)
			if err != nil {
				t.Fatalf("sweep %d %v: reparse cost: %v", i, kind, err)
			}
			got, err := prep.Cost(ctx, vals, kind)
			if err != nil {
				t.Fatalf("sweep %d %v: prepared cost: %v", i, kind, err)
			}
			if got != want {
				t.Fatalf("sweep %d %v: prepared cost %v != reparse cost %v (sql %q)", i, kind, got, want, sql)
			}
		}
	}
	for _, tmpl := range slices.Concat(estimateMix, measuredMix) {
		prep, err := db.Prepare(tmpl.sql)
		if err != nil {
			t.Fatalf("Prepare %q: %v", tmpl.sql, err)
		}
		for i := range 4 {
			vals := tmpl.vals(1, i)
			sql, err := sqltemplate.MustParse(tmpl.sql).Instantiate(vals)
			if err != nil {
				t.Fatalf("instantiate %q: %v", tmpl.sql, err)
			}
			for _, kind := range kinds {
				want, err := db.Cost(ctx, sql, kind)
				if err != nil {
					t.Fatalf("%v: reparse cost of %q: %v", kind, sql, err)
				}
				sessions := db.SessionProbes()
				got, err := prep.Cost(ctx, vals, kind)
				if err != nil {
					t.Fatalf("%v: prepared cost of %q: %v", kind, sql, err)
				}
				if got != want {
					t.Fatalf("%v: prepared cost %v != reparse cost %v (sql %q)", kind, got, want, sql)
				}
				wantSessions := int64(0)
				if kind.Measured() {
					wantSessions = 1
				}
				if moved := db.SessionProbes() - sessions; moved != wantSessions {
					t.Fatalf("%v: one probe moved SessionProbes by %d, want %d", kind, moved, wantSessions)
				}
			}
		}
	}
}

// TestPreparedCountsEvaluationsLikeCost checks call parity: a prepared probe
// increments exactly the counters a re-parse probe would, and Prepare itself
// increments none.
func TestPreparedCountsEvaluationsLikeCost(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	db.ResetCounters()
	prep, err := db.Prepare("SELECT COUNT(*) FROM orders WHERE o_orderkey <= {p_1}")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if db.ExplainCalls() != 0 || db.ExecCalls() != 0 {
		t.Fatalf("Prepare must not count evaluations, got explain=%d exec=%d", db.ExplainCalls(), db.ExecCalls())
	}
	vals := map[string]sqltypes.Value{"p_1": sqltypes.NewInt(100)}
	if _, err := prep.Cost(ctx, vals, Cardinality); err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Cost(ctx, vals, PlanCost); err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Cost(ctx, vals, RowsProcessed); err != nil {
		t.Fatal(err)
	}
	if db.ExplainCalls() != 2 || db.ExecCalls() != 1 || db.SessionProbes() != 1 {
		t.Fatalf("prepared counter parity broken: explain=%d exec=%d session=%d, want 2/1/1",
			db.ExplainCalls(), db.ExecCalls(), db.SessionProbes())
	}
}

func TestPreparedMissingValue(t *testing.T) {
	db := testDB(t)
	prep, err := db.Prepare("SELECT COUNT(*) FROM orders WHERE o_orderkey <= {p_1}")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	_, err = prep.Cost(context.Background(), map[string]sqltypes.Value{}, Cardinality)
	if err == nil || !strings.Contains(err.Error(), "p_1") {
		t.Fatalf("want missing-placeholder error naming p_1, got %v", err)
	}
}

func TestPreparedRejectsBadTemplate(t *testing.T) {
	db := testDB(t)
	if _, err := db.Prepare("SELECT nope FROM orders"); err == nil {
		t.Fatal("Prepare must surface binding errors at prepare time")
	}
	if _, err := db.Prepare("SELEC 1"); err == nil {
		t.Fatal("Prepare must surface parse errors")
	}
}

func TestPreparedCancelledContext(t *testing.T) {
	db := testDB(t)
	prep, err := db.Prepare("SELECT COUNT(*) FROM orders WHERE o_orderkey <= {p_1}")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	db.ResetCounters()
	if _, err := prep.Cost(ctx, map[string]sqltypes.Value{"p_1": sqltypes.NewInt(1)}, Cardinality); err == nil {
		t.Fatal("prepared cost must honor a cancelled context")
	}
	if _, err := db.Cost(ctx, "SELECT 1", Cardinality); err == nil {
		t.Fatal("Cost must honor a cancelled context")
	}
	if db.ExplainCalls() != 0 {
		t.Fatalf("cancelled probes must not count as evaluations, got %d", db.ExplainCalls())
	}
}
