package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"sqlbarber/internal/datagen"
	"sqlbarber/internal/plan"
	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/storage"
)

// This file differentially tests the optimized executor (predicate pushdown,
// hash joins, residual filters) against an independent brute-force reference
// evaluator on randomly generated queries: cross-join all tables, evaluate
// the full WHERE per tuple, and project. Any divergence is a correctness bug
// in conjunct placement, join algorithms, or null handling.

// refEval evaluates a restricted query class (no aggregates, no subqueries,
// inner joins only, no distinct/order/limit) by brute force.
func refEval(t *testing.T, db *storage.Database, q *plan.Query) []storage.Row {
	t.Helper()
	stmt := q.Stmt
	// Materialize the cross product of all table instances.
	tuples := [][]storage.Row{nil}
	n := len(q.Binding.Scope.Tables)
	for ti := 0; ti < n; ti++ {
		inst := q.Binding.Scope.Tables[ti]
		tbl := db.Table(inst.Table.Name)
		var next [][]storage.Row
		for _, tp := range tuples {
			for _, r := range tbl.Rows {
				nt := make([]storage.Row, ti+1)
				copy(nt, tp)
				nt[ti] = r
				next = append(next, nt)
			}
		}
		tuples = next
	}
	// Full condition: all ON clauses AND the whole WHERE.
	ex := &executor{db: db, ar: new(Arena)}
	var conds []sqlparser.Expr
	for _, j := range stmt.Joins {
		conds = append(conds, j.On)
	}
	if stmt.Where != nil {
		conds = append(conds, stmt.Where)
	}
	var out []storage.Row
	for _, tp := range tuples {
		full := make([]storage.Row, n)
		copy(full, tp)
		e := &env{q: q, rows: full}
		keep := true
		for _, c := range conds {
			v, err := ex.eval(c, e)
			if err != nil {
				t.Fatalf("ref eval: %v", err)
			}
			if !v.Bool() {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		row := make(storage.Row, 0, len(stmt.Items))
		for _, it := range stmt.Items {
			v, err := ex.eval(it.Expr, e)
			if err != nil {
				t.Fatalf("ref project: %v", err)
			}
			row = append(row, v)
		}
		out = append(out, row)
	}
	return out
}

func canonical(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// genQuery builds a random restricted query over the TPC-H schema.
func genQuery(rng *rand.Rand) string {
	type tbl struct {
		name string
		num  []string
	}
	small := []tbl{
		{"region", []string{"r_regionkey"}},
		{"nation", []string{"n_nationkey", "n_regionkey"}},
		{"supplier", []string{"s_suppkey", "s_nationkey", "s_acctbal"}},
	}
	t1 := small[rng.Intn(len(small))]
	joined := ""
	t2 := tbl{}
	switch {
	case t1.name == "nation" && rng.Intn(2) == 0:
		t2 = small[0]
		joined = " JOIN region AS b ON a.n_regionkey = b.r_regionkey"
	case t1.name == "supplier" && rng.Intn(2) == 0:
		t2 = small[1]
		joined = " JOIN nation AS b ON a.s_nationkey = b.n_nationkey"
	}
	cols := []string{}
	for _, c := range t1.num {
		cols = append(cols, "a."+c)
	}
	if joined != "" {
		for _, c := range t2.num {
			cols = append(cols, "b."+c)
		}
	}
	sel := cols[rng.Intn(len(cols))]
	ops := []string{">", "<", ">=", "<=", "=", "<>"}
	var preds []string
	for k := 0; k < 1+rng.Intn(3); k++ {
		c := cols[rng.Intn(len(cols))]
		switch rng.Intn(4) {
		case 0:
			preds = append(preds, fmt.Sprintf("%s %s %d", c, ops[rng.Intn(len(ops))], rng.Intn(30)))
		case 1:
			preds = append(preds, fmt.Sprintf("%s BETWEEN %d AND %d", c, rng.Intn(10), 10+rng.Intn(20)))
		case 2:
			preds = append(preds, fmt.Sprintf("%s IN (%d, %d, %d)", c, rng.Intn(25), rng.Intn(25), rng.Intn(25)))
		default:
			c2 := cols[rng.Intn(len(cols))]
			preds = append(preds, fmt.Sprintf("%s %s %s", c, ops[rng.Intn(len(ops))], c2))
		}
	}
	glue := " AND "
	if rng.Intn(3) == 0 {
		glue = " OR "
	}
	return "SELECT " + sel + ", " + cols[0] + " FROM " + t1.name + " AS a" + joined +
		" WHERE " + strings.Join(preds, glue)
}

func TestExecutorMatchesBruteForce(t *testing.T) {
	db := datagen.TPCH(2, 0.1)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 120; i++ {
		sql := genQuery(rng)
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatalf("query %d parse (%s): %v", i, sql, err)
		}
		q, err := plan.Build(db.Schema, stmt)
		if err != nil {
			t.Fatalf("query %d plan (%s): %v", i, sql, err)
		}
		got, err := Run(db, q)
		if err != nil {
			t.Fatalf("query %d exec (%s): %v", i, sql, err)
		}
		want := refEval(t, db, q)
		g, w := canonical(got.Rows), canonical(want)
		if len(g) != len(w) {
			t.Fatalf("query %d: %d rows vs reference %d\nSQL: %s", i, len(g), len(w), sql)
		}
		for k := range g {
			if g[k] != w[k] {
				t.Fatalf("query %d row %d: %q vs reference %q\nSQL: %s", i, k, g[k], w[k], sql)
			}
		}
	}
}

// TestCardinalityEstimateVsActual checks the optimizer's estimates stay
// within a sane factor of reality for simple range predicates — the property
// the whole cost-targeted generation pipeline leans on.
func TestCardinalityEstimateVsActual(t *testing.T) {
	db := datagen.TPCH(2, 0.1)
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		cutoff := int(1500 * frac) // orders has 1500 rows at sf 0.1
		sql := fmt.Sprintf("SELECT o_orderkey FROM orders WHERE o_orderkey <= %d", cutoff)
		stmt, _ := sqlparser.Parse(sql)
		q, err := plan.Build(db.Schema, stmt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(db, q)
		if err != nil {
			t.Fatal(err)
		}
		actual := float64(len(res.Rows))
		est := q.EstimatedRows()
		if est < actual*0.7 || est > actual*1.4 {
			t.Errorf("frac %.2f: estimate %.0f vs actual %.0f (off by > 40%%)", frac, est, actual)
		}
	}
}

func TestAggregateMatchesManualComputation(t *testing.T) {
	db := datagen.TPCH(2, 0.05)
	// Manual: sum of o_totalprice grouped by status, via raw storage access.
	orders := db.Table("orders")
	statusIdx := orders.Meta.ColumnIndex("o_orderstatus")
	priceIdx := orders.Meta.ColumnIndex("o_totalprice")
	wantSum := map[string]float64{}
	wantCount := map[string]int64{}
	for _, r := range orders.Rows {
		s := r[statusIdx].Str()
		wantSum[s] += r[priceIdx].Float()
		wantCount[s]++
	}
	stmt, _ := sqlparser.Parse("SELECT o_orderstatus, COUNT(*), SUM(o_totalprice) FROM orders GROUP BY o_orderstatus")
	q, _ := plan.Build(db.Schema, stmt)
	res, err := Run(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(wantSum) {
		t.Fatalf("groups %d vs %d", len(res.Rows), len(wantSum))
	}
	for _, r := range res.Rows {
		s := r[0].Str()
		if r[1].Int() != wantCount[s] {
			t.Errorf("status %s count %v, want %v", s, r[1], wantCount[s])
		}
		diff := r[2].Float() - wantSum[s]
		if diff > 1e-6 || diff < -1e-6 {
			t.Errorf("status %s sum %v, want %v", s, r[2], wantSum[s])
		}
	}
}
