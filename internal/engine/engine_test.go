package engine

import (
	"context"
	"strings"
	"testing"
)

func testDB(t testing.TB) *DB {
	t.Helper()
	return OpenTPCH(42, 0.05) // lineitem=3000, orders=750
}

func TestExecuteSimpleFilter(t *testing.T) {
	db := testDB(t)
	res, err := db.Execute("SELECT o_orderkey FROM orders WHERE o_orderkey <= 10")
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(res.Rows))
	}
}

func TestExecuteJoinMatchesForeignKeys(t *testing.T) {
	db := testDB(t)
	res, err := db.Execute(
		"SELECT c.c_name, o.o_orderkey FROM customer AS c JOIN orders AS o ON c.c_custkey = o.o_custkey WHERE o.o_orderkey <= 50")
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if len(res.Rows) != 50 {
		t.Fatalf("join produced %d rows, want 50 (every order has a customer)", len(res.Rows))
	}
}

func TestExecuteAggregation(t *testing.T) {
	db := testDB(t)
	res, err := db.Execute("SELECT COUNT(*), SUM(o_totalprice), MIN(o_orderkey), MAX(o_orderkey) FROM orders")
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(res.Rows))
	}
	n := res.Rows[0][0].Int()
	if n != 750 {
		t.Fatalf("COUNT(*)=%d, want 750", n)
	}
	if res.Rows[0][2].Int() != 1 || res.Rows[0][3].Int() != 750 {
		t.Fatalf("MIN/MAX = %v/%v, want 1/750", res.Rows[0][2], res.Rows[0][3])
	}
}

func TestExecuteGroupByHaving(t *testing.T) {
	db := testDB(t)
	res, err := db.Execute(
		"SELECT o_orderstatus, COUNT(*) AS n FROM orders GROUP BY o_orderstatus HAVING COUNT(*) > 0 ORDER BY n DESC")
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d groups, want 3 statuses", len(res.Rows))
	}
	total := int64(0)
	prev := int64(1 << 62)
	for _, r := range res.Rows {
		n := r[1].Int()
		total += n
		if n > prev {
			t.Fatalf("ORDER BY n DESC violated: %d after %d", n, prev)
		}
		prev = n
	}
	if total != 750 {
		t.Fatalf("group counts sum to %d, want 750", total)
	}
}

func TestExecuteInSubquery(t *testing.T) {
	db := testDB(t)
	res, err := db.Execute(
		"SELECT COUNT(*) FROM orders WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_custkey <= 5)")
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	direct, err := db.Execute("SELECT COUNT(*) FROM orders WHERE o_custkey <= 5")
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if got, want := res.Rows[0][0].Int(), direct.Rows[0][0].Int(); got != want {
		t.Fatalf("IN-subquery count %d != direct count %d", got, want)
	}
}

func TestExecuteCorrelatedExists(t *testing.T) {
	db := testDB(t)
	res, err := db.Execute(
		"SELECT COUNT(*) FROM customer AS c WHERE EXISTS (SELECT 1 FROM orders AS o WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > 100)")
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	n := res.Rows[0][0].Int()
	if n <= 0 || n > 750 {
		t.Fatalf("EXISTS count %d out of plausible range", n)
	}
}

func TestExecuteAggregatesInLikePattern(t *testing.T) {
	db := testDB(t)
	if _, err := db.Execute("SELECT COUNT(*) FROM nation GROUP BY n_regionkey HAVING MIN(n_name) LIKE MAX(n_name)"); err != nil {
		t.Fatalf("execute: %v", err)
	}
	regions, err := db.Execute("SELECT n_regionkey FROM nation GROUP BY n_regionkey")
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	res, err := db.Execute("SELECT n_regionkey FROM nation GROUP BY n_regionkey HAVING MAX(n_name) LIKE MAX(n_name)")
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if len(res.Rows) != len(regions.Rows) {
		t.Fatalf("MAX LIKE MAX kept %d of %d groups", len(res.Rows), len(regions.Rows))
	}
}

func TestExplainEstimates(t *testing.T) {
	db := testDB(t)
	all, err := db.Explain("SELECT * FROM lineitem")
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if all.Cardinality < 2900 || all.Cardinality > 3100 {
		t.Fatalf("full-scan cardinality %.0f, want ~3000", all.Cardinality)
	}
	half, err := db.Explain("SELECT * FROM lineitem WHERE l_quantity <= 25")
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if half.Cardinality >= all.Cardinality || half.Cardinality < all.Cardinality*0.25 {
		t.Fatalf("selective-scan cardinality %.0f vs %.0f: selectivity estimation broken", half.Cardinality, all.Cardinality)
	}
	if all.Cost <= 0 || half.Cost <= 0 {
		t.Fatalf("non-positive costs: %v %v", all.Cost, half.Cost)
	}
	if !strings.Contains(all.Plan, "Seq Scan") {
		t.Fatalf("plan text missing scan node:\n%s", all.Plan)
	}
}

func TestExplainCardinalityMonotoneInPredicate(t *testing.T) {
	db := testDB(t)
	prev := -1.0
	for _, q := range []string{
		"SELECT * FROM orders WHERE o_orderkey <= 10",
		"SELECT * FROM orders WHERE o_orderkey <= 100",
		"SELECT * FROM orders WHERE o_orderkey <= 400",
		"SELECT * FROM orders WHERE o_orderkey <= 750",
	} {
		res, err := db.Explain(q)
		if err != nil {
			t.Fatalf("explain %q: %v", q, err)
		}
		if res.Cardinality < prev {
			t.Fatalf("cardinality not monotone: %.1f after %.1f for %q", res.Cardinality, prev, q)
		}
		prev = res.Cardinality
	}
}

func TestValidateSyntax(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		sql string
		ok  bool
	}{
		{"SELECT o_orderkey FROM orders WHERE o_totalprice > {p_1}", true},
		{"SELECT COUNT(*) FROM lineitem WHERE l_quantity BETWEEN {p_1} AND {p_2}", true},
		// Placeholder substitution happens on the AST, so braces inside
		// string literals survive. A textual rewrite used to splice the span
		// between the two literals' braces into "0", turning this valid
		// statement into a parse error.
		{"SELECT COUNT(*) FROM orders WHERE o_orderstatus BETWEEN '{' AND '}'", true},
		// A placeholder-shaped token inside a string literal is data, not a
		// placeholder; it must reach the planner untouched.
		{"SELECT o_orderkey FROM orders WHERE o_orderstatus LIKE '%{p_1}%'", true},
		// Real placeholders and brace-bearing literals can coexist.
		{"SELECT o_orderkey FROM orders WHERE o_totalprice > {p_1} AND o_orderstatus <> '{'", true},
		{"SELECT nosuchcol FROM orders", false},
		{"SELECT o_orderkey FROM nosuchtable", false},
		// An aggregate in a LIKE pattern is still an aggregate in WHERE.
		{"SELECT COUNT(*) FROM nation WHERE n_name LIKE MAX(n_name)", false},
		{"SELECT FROM WHERE", false},
		{"SELECT o_orderkey FROM orders WHERE", false},
		{"SELECT o_orderkey, FROM orders", false},
	}
	for _, c := range cases {
		ok, msg := db.ValidateSyntax(c.sql)
		if ok != c.ok {
			t.Errorf("ValidateSyntax(%q) = %v (%s), want %v", c.sql, ok, msg, c.ok)
		}
		if !ok && msg == "" {
			t.Errorf("ValidateSyntax(%q) failed without a message", c.sql)
		}
	}
}

func TestCostKinds(t *testing.T) {
	db := testDB(t)
	sql := "SELECT COUNT(*) FROM orders WHERE o_totalprice > 1000"
	card, err := db.Cost(context.Background(), sql, Cardinality)
	if err != nil {
		t.Fatalf("cardinality: %v", err)
	}
	if card != 1 {
		t.Fatalf("aggregate cardinality %v, want 1", card)
	}
	cost, err := db.Cost(context.Background(), sql, PlanCost)
	if err != nil || cost <= 0 {
		t.Fatalf("plan cost %v err %v", cost, err)
	}
	rows, err := db.Cost(context.Background(), sql, RowsProcessed)
	if err != nil || rows <= 0 {
		t.Fatalf("rows processed %v err %v", rows, err)
	}
}

func TestCounters(t *testing.T) {
	db := testDB(t)
	db.ResetCounters()
	if _, err := db.Explain("SELECT * FROM orders"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute("SELECT COUNT(*) FROM region"); err != nil {
		t.Fatal(err)
	}
	if db.ExplainCalls() != 1 || db.ExecCalls() != 1 {
		t.Fatalf("counters explain=%d exec=%d, want 1/1", db.ExplainCalls(), db.ExecCalls())
	}
}

func TestExecuteCaseExpression(t *testing.T) {
	db := testDB(t)
	res, err := db.Execute(
		"SELECT CASE WHEN o_totalprice > 50000 THEN 'big' ELSE 'small' END AS bucket, COUNT(*) FROM orders GROUP BY bucket")
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if len(res.Rows) == 0 || len(res.Rows) > 2 {
		t.Fatalf("got %d buckets, want 1 or 2", len(res.Rows))
	}
}

func TestExecuteLeftJoin(t *testing.T) {
	db := testDB(t)
	// customers with zero orders should still appear with NULL order keys
	res, err := db.Execute(
		"SELECT c.c_custkey, o.o_orderkey FROM customer AS c LEFT JOIN orders AS o ON c.c_custkey = o.o_custkey")
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	inner, err := db.Execute(
		"SELECT c.c_custkey FROM customer AS c JOIN orders AS o ON c.c_custkey = o.o_custkey")
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if len(res.Rows) < len(inner.Rows) {
		t.Fatalf("left join rows %d < inner join rows %d", len(res.Rows), len(inner.Rows))
	}
	sawNull := false
	for _, r := range res.Rows {
		if r[1].IsNull() {
			sawNull = true
			break
		}
	}
	if !sawNull && len(res.Rows) == len(inner.Rows) {
		t.Log("every customer had an order; left-join null-extension not exercised at this scale")
	}
}
