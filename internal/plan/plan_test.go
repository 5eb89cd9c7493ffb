package plan

import (
	"strings"
	"testing"

	"sqlbarber/internal/datagen"
	"sqlbarber/internal/sqlparser"
)

func buildQuery(t *testing.T, sql string) *Query {
	t.Helper()
	db := datagen.TPCH(1, 0.05)
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	q, err := Build(db.Schema, stmt)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return q
}

func buildErr(t *testing.T, sql string) error {
	t.Helper()
	db := datagen.TPCH(1, 0.05)
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Build(db.Schema, stmt)
	if err == nil {
		t.Fatalf("Build(%q) should fail", sql)
	}
	return err
}

func TestBinderErrors(t *testing.T) {
	cases := []struct {
		sql     string
		wantMsg string
	}{
		{"SELECT nosuch FROM orders", "does not exist"},
		{"SELECT o_orderkey FROM nosuchtable", "relation"},
		{"SELECT o_orderkey FROM orders, more", ""}, // parse-level, skip
		{"SELECT x.o_orderkey FROM orders", "missing FROM-clause entry"},
		{"SELECT o_orderkey FROM orders AS a JOIN orders AS a ON a.o_orderkey = a.o_orderkey", "more than once"},
		{"SELECT COUNT(*) FROM orders WHERE SUM(o_totalprice) > 5", "not allowed in WHERE"},
		{"SELECT o_orderkey FROM orders WHERE o_totalprice > {p_1}", "placeholder"},
	}
	for _, c := range cases {
		if c.wantMsg == "" {
			continue
		}
		err := buildErr(t, c.sql)
		if !strings.Contains(err.Error(), c.wantMsg) {
			t.Errorf("Build(%q) error %q, want substring %q", c.sql, err, c.wantMsg)
		}
	}
}

// TestPlainColumnAliasBinds pins that GROUP BY, HAVING and ORDER BY may
// name an output alias whose expression is a plain column: the reference
// binds to the aliased column, as a computed alias's columns already do.
func TestPlainColumnAliasBinds(t *testing.T) {
	for _, sql := range []string{
		"SELECT r_name AS n FROM region ORDER BY n",
		"SELECT r_regionkey AS k, COUNT(*) FROM region GROUP BY k",
		"SELECT r_regionkey AS k, COUNT(*) FROM region GROUP BY k HAVING k > 1 ORDER BY k DESC",
	} {
		q := buildQuery(t, sql)
		want := q.Binding.Cols[q.Stmt.Items[0].Expr.(*sqlparser.ColumnRef)]
		var refs []sqlparser.Expr
		refs = append(refs, q.Stmt.GroupBy...)
		if q.Stmt.Having != nil {
			refs = append(refs, q.Stmt.Having.(*sqlparser.BinaryExpr).L)
		}
		for _, o := range q.Stmt.OrderBy {
			refs = append(refs, o.Expr)
		}
		for _, r := range refs {
			c := r.(*sqlparser.ColumnRef)
			if got, ok := q.Binding.Cols[c]; !ok || got != want {
				t.Errorf("%s: %s bound to %+v (ok=%v), want the aliased column %+v", sql, c.Name, got, ok, want)
			}
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := datagen.TPCH(1, 0.05)
	stmt, _ := sqlparser.Parse("SELECT l_orderkey FROM lineitem AS a JOIN lineitem AS b ON a.l_orderkey = b.l_orderkey")
	if _, err := Build(db.Schema, stmt); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("expected ambiguity error, got %v", err)
	}
}

func TestScanEstimates(t *testing.T) {
	full := buildQuery(t, "SELECT * FROM orders")
	if full.EstimatedRows() != 750 {
		t.Fatalf("full scan rows = %v", full.EstimatedRows())
	}
	half := buildQuery(t, "SELECT * FROM orders WHERE o_orderkey <= 375")
	ratio := half.EstimatedRows() / full.EstimatedRows()
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("range selectivity %.2f, want ~0.5", ratio)
	}
	eq := buildQuery(t, "SELECT * FROM orders WHERE o_orderkey = 10")
	if eq.EstimatedRows() > 3 {
		t.Fatalf("pk equality rows = %v, want ~1", eq.EstimatedRows())
	}
}

func TestSelectivityCombinators(t *testing.T) {
	a := buildQuery(t, "SELECT * FROM lineitem WHERE l_quantity <= 25")
	b := buildQuery(t, "SELECT * FROM lineitem WHERE l_quantity <= 25 AND l_linenumber <= 3")
	if b.EstimatedRows() >= a.EstimatedRows() {
		t.Fatal("AND must reduce estimated rows")
	}
	c := buildQuery(t, "SELECT * FROM lineitem WHERE l_quantity <= 25 OR l_linenumber <= 3")
	if c.EstimatedRows() <= a.EstimatedRows() {
		t.Fatal("OR must increase estimated rows")
	}
	d := buildQuery(t, "SELECT * FROM lineitem WHERE NOT l_quantity <= 25")
	sum := a.EstimatedRows() + d.EstimatedRows()
	total := buildQuery(t, "SELECT * FROM lineitem").EstimatedRows()
	if sum < total*0.9 || sum > total*1.1 {
		t.Fatalf("NOT complement broken: %v + %v vs %v", a.EstimatedRows(), d.EstimatedRows(), total)
	}
}

func TestEquiJoinEstimate(t *testing.T) {
	q := buildQuery(t, "SELECT * FROM lineitem AS l JOIN orders AS o ON l.l_orderkey = o.o_orderkey")
	rows := q.EstimatedRows()
	// FK join preserves the fact table: expect ~3000 (lineitem at sf 0.05).
	if rows < 1500 || rows > 6000 {
		t.Fatalf("FK join estimate %v, want ~3000", rows)
	}
	if q.JoinEqui[0] == nil {
		t.Fatal("equi keys not extracted")
	}
}

func TestNestedLoopForNonEquiJoin(t *testing.T) {
	q := buildQuery(t, "SELECT * FROM region AS r JOIN nation AS n ON n.n_regionkey > r.r_regionkey")
	if q.JoinEqui[0] != nil {
		t.Fatal("non-equi join must not extract keys")
	}
	if !strings.Contains(q.Explain(), "Nested Loop") {
		t.Fatalf("expected nested loop:\n%s", q.Explain())
	}
}

func TestCostMonotoneInInputSize(t *testing.T) {
	small := buildQuery(t, "SELECT * FROM nation")
	big := buildQuery(t, "SELECT * FROM lineitem")
	if big.TotalCost() <= small.TotalCost() {
		t.Fatalf("bigger table must cost more: %v vs %v", big.TotalCost(), small.TotalCost())
	}
	joined := buildQuery(t, "SELECT * FROM lineitem AS l JOIN orders AS o ON l.l_orderkey = o.o_orderkey")
	if joined.TotalCost() <= big.TotalCost() {
		t.Fatal("join must cost more than its bigger input")
	}
}

func TestIndexScanChosenForSelectivePredicate(t *testing.T) {
	q := buildQuery(t, "SELECT * FROM orders WHERE o_orderkey = 5")
	if !strings.Contains(q.Explain(), "Index Scan") {
		t.Fatalf("pk equality should use the index:\n%s", q.Explain())
	}
	full := buildQuery(t, "SELECT * FROM orders")
	if strings.Contains(full.Explain(), "Index Scan") {
		t.Fatal("full scan must not use an index")
	}
	if q.TotalCost() >= full.TotalCost() {
		t.Fatal("index scan must be cheaper than seq scan here")
	}
}

func TestAggregateEstimates(t *testing.T) {
	agg := buildQuery(t, "SELECT COUNT(*) FROM lineitem")
	if agg.EstimatedRows() != 1 {
		t.Fatalf("global aggregate rows = %v", agg.EstimatedRows())
	}
	grouped := buildQuery(t, "SELECT o_orderstatus, COUNT(*) FROM orders GROUP BY o_orderstatus")
	if grouped.EstimatedRows() < 2 || grouped.EstimatedRows() > 10 {
		t.Fatalf("3-status group estimate = %v", grouped.EstimatedRows())
	}
}

func TestSubqueryCostIncluded(t *testing.T) {
	plain := buildQuery(t, "SELECT * FROM orders WHERE o_totalprice > 100")
	withSub := buildQuery(t, "SELECT * FROM orders WHERE o_totalprice > 100 AND o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal > 0)")
	if withSub.TotalCost() <= plain.TotalCost() {
		t.Fatal("subquery cost must be added")
	}
	if len(withSub.Subplans) != 1 {
		t.Fatalf("subplans = %d", len(withSub.Subplans))
	}
}

func TestWrappedSubqueryCharged(t *testing.T) {
	// A residual conjunct charges every subquery at its level, however deep
	// in the conjunct it sits.
	bare := buildQuery(t, "SELECT n_name FROM nation WHERE (SELECT MIN(p_size) FROM part) < n_nationkey")
	for _, where := range []string{
		"COALESCE((SELECT MIN(p_size) FROM part), 0) < n_nationkey",
		"n_nationkey BETWEEN (SELECT MIN(p_size) FROM part) AND 10",
		"n_name LIKE (SELECT MIN(p_name) FROM part)",
	} {
		q := buildQuery(t, "SELECT n_name FROM nation WHERE "+where)
		if len(q.Residual) != 1 || len(q.residSubs[0]) != 1 || q.residSubs[0][0] != q.subOrder[0] {
			t.Errorf("%s: residual %d, charged subplans %v, want the one subquery charged", where, len(q.Residual), q.residSubs)
			continue
		}
		if got, want := q.TotalCost(), bare.TotalCost(); got != want {
			t.Errorf("%s: cost %v, want %v as for the bare subquery", where, got, want)
		}
	}
}

func TestLimitCapsRows(t *testing.T) {
	q := buildQuery(t, "SELECT * FROM lineitem LIMIT 10")
	if q.EstimatedRows() != 10 {
		t.Fatalf("limit rows = %v", q.EstimatedRows())
	}
}

func TestExplainTextStructure(t *testing.T) {
	q := buildQuery(t, "SELECT o_orderstatus, COUNT(*) FROM orders AS o JOIN customer AS c ON o.o_custkey = c.c_custkey WHERE c.c_acctbal > 0 GROUP BY o_orderstatus ORDER BY o_orderstatus LIMIT 5")
	text := q.Explain()
	for _, want := range []string{"Limit 5", "Sort", "HashAggregate", "Hash Join", "Seq Scan"} {
		if !strings.Contains(text, want) {
			t.Errorf("explain missing %q:\n%s", want, text)
		}
	}
}

func TestLeftJoinRowsAtLeastLeft(t *testing.T) {
	// A left join with an extremely selective ON-side filter still produces
	// at least one row per left-side row.
	left := buildQuery(t, "SELECT * FROM customer AS c LEFT JOIN orders AS o ON c.c_custkey = o.o_custkey AND o.o_totalprice > 1000000000")
	custRows := buildQuery(t, "SELECT * FROM customer").EstimatedRows()
	if left.Root.Rows() < custRows {
		t.Fatalf("left join rows %v < customer rows %v", left.Root.Rows(), custRows)
	}
}

func TestConjunctPlacement(t *testing.T) {
	q := buildQuery(t, "SELECT * FROM lineitem AS l JOIN orders AS o ON l.l_orderkey = o.o_orderkey WHERE l.l_quantity > 10 AND o.o_totalprice < 1000 AND l.l_extendedprice > o.o_totalprice")
	if len(q.ScanFilters[0]) != 1 || len(q.ScanFilters[1]) != 1 {
		t.Fatalf("single-table conjuncts not pushed down: %v %v", q.ScanFilters[0], q.ScanFilters[1])
	}
	if len(q.Residual) != 1 {
		t.Fatalf("cross-table conjunct must be residual, got %d", len(q.Residual))
	}
}
