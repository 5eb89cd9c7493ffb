package sqlparser

import (
	"fmt"
	"reflect"
	"regexp"
	"testing"
)

// colName matches the x<N> column names the walk-order statements use.
var colName = regexp.MustCompile(`\bx\d\b`)

// walkNames walks e, recording each column a node names and, for every
// nested SELECT, the column of its first select item.
func walkNames(e Expr, seen map[string]bool) []string {
	var got []string
	Walk(e, func(x Expr) bool {
		seen[fmt.Sprintf("%T", x)] = true
		if cr, ok := x.(*ColumnRef); ok {
			got = append(got, cr.Name)
		}
		return true
	}, func(sub *SelectStmt) {
		got = append(got, sub.Items[0].Expr.(*ColumnRef).Name)
	})
	return got
}

func TestWalkVisitsChildrenInRenderingOrder(t *testing.T) {
	wheres := map[string]string{
		"binary":       "x1 + x2 > x3",
		"unary":        "NOT (-x1 > x2)",
		"func":         "COALESCE(x1, x2, x3) > 0",
		"case":         "CASE WHEN x1 > 0 THEN x2 WHEN x3 > 0 THEN x4 ELSE x5 END = 'a'",
		"in list":      "x1 IN (x2, x3, {p})",
		"in subquery":  "x1 IN (SELECT x2 FROM s)",
		"exists":       "EXISTS (SELECT x1 FROM s) AND x2 > 0",
		"between":      "x1 BETWEEN x2 AND x3",
		"like":         "x1 LIKE x2",
		"is null":      "x1 IS NULL OR x2 IS NOT NULL",
		"scalar sub":   "(SELECT x1 FROM s) < x2",
		"sub in sub":   "(SELECT x1 FROM s) IN (SELECT x2 FROM s)",
		"wrapped subs": "COALESCE((SELECT x1 FROM s), x2) BETWEEN x3 AND (SELECT x4 FROM s)",
	}
	seen := map[string]bool{}
	for kind, where := range wheres {
		stmt := mustParse(t, "SELECT * FROM t WHERE "+where)
		want := colName.FindAllString(stmt.Where.SQL(), -1)
		if got := walkNames(stmt.Where, seen); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Walk(%s) visited %v, want rendering order %v", kind, stmt.Where.SQL(), got, want)
		}
	}
	for _, kind := range []Expr{&ColumnRef{}, &Literal{}, &Placeholder{}, &BinaryExpr{}, &UnaryExpr{},
		&FuncCall{}, &CaseExpr{}, &InExpr{}, &ExistsExpr{}, &BetweenExpr{}, &LikeExpr{}, &IsNullExpr{}, &SubqueryExpr{}} {
		if !seen[fmt.Sprintf("%T", kind)] {
			t.Errorf("no walk-order statement covers %T", kind)
		}
	}
}

func TestWalkPrunesChildrenAndSubqueries(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM t WHERE COALESCE(x1, (SELECT x2 FROM s)) < x3")
	var got []string
	Walk(stmt.Where, func(x Expr) bool {
		if cr, ok := x.(*ColumnRef); ok {
			got = append(got, cr.Name)
		}
		_, isFunc := x.(*FuncCall)
		return !isFunc
	}, func(*SelectStmt) { got = append(got, "subquery") })
	if want := []string{"x3"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("pruned walk visited %v, want %v", got, want)
	}
}

func TestEachClauseOrder(t *testing.T) {
	stmt := mustParse(t, "SELECT x1, x2 FROM t JOIN s ON x3 = 1 WHERE x4 > 0 GROUP BY x5 HAVING x6 > 0 ORDER BY x7")
	var clauses, names []string
	stmt.EachClause(func(clause string, e Expr) {
		clauses = append(clauses, clause)
		names = append(names, colName.FindAllString(e.SQL(), -1)...)
	})
	wantClauses := []string{"SELECT", "SELECT", "ON", "WHERE", "GROUP BY", "HAVING", "ORDER BY"}
	if !reflect.DeepEqual(clauses, wantClauses) {
		t.Errorf("clauses %v, want %v", clauses, wantClauses)
	}
	if want := colName.FindAllString(stmt.SQL(), -1); !reflect.DeepEqual(names, want) {
		t.Errorf("clause expressions name %v, want rendering order %v", names, want)
	}
	var none []string
	mustParse(t, "SELECT * FROM t").EachClause(func(clause string, _ Expr) { none = append(none, clause) })
	if len(none) != 0 {
		t.Errorf("star item and absent clauses yielded %v", none)
	}
}

func TestDirectSubqueriesOrderAndDepth(t *testing.T) {
	stmt := mustParse(t, "SELECT x0 FROM t WHERE (SELECT x1 FROM s WHERE x3 IN (SELECT x4 FROM u)) IN (SELECT x2 FROM s)")
	var got []string
	for _, sub := range stmt.DirectSubqueries() {
		got = append(got, sub.Items[0].Expr.(*ColumnRef).Name)
	}
	if want := []string{"x1", "x2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("DirectSubqueries = %v, want the IN operand's subquery first and no nested one: %v", got, want)
	}
}

func TestContainsAggregateStaysAtItsLevel(t *testing.T) {
	cases := map[string]bool{
		"x1 LIKE MAX(x2)":                   true,
		"CASE WHEN x1 > 0 THEN SUM(x2) END": true,
		"COALESCE(x1, 0)":                   false,
		"x1 > (SELECT MAX(x2) FROM s)":      false,
	}
	for expr, want := range cases {
		stmt := mustParse(t, "SELECT "+expr+" FROM t")
		if got := ContainsAggregate(stmt.Items[0].Expr); got != want {
			t.Errorf("ContainsAggregate(%s) = %v, want %v", expr, got, want)
		}
	}
}
