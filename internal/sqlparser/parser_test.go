package sqlparser

import (
	"strings"
	"testing"

	"sqlbarber/internal/sqltypes"
)

func mustParse(t *testing.T, sql string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return stmt
}

func TestParseSimpleSelect(t *testing.T) {
	stmt := mustParse(t, "SELECT a, b FROM t WHERE a > 5")
	if len(stmt.Items) != 2 || stmt.From.Table != "t" || stmt.Where == nil {
		t.Fatalf("unexpected AST: %+v", stmt)
	}
	be := stmt.Where.(*BinaryExpr)
	if be.Op != OpGt {
		t.Fatalf("where op = %v", be.Op)
	}
	if be.R.(*Literal).Value.Int() != 5 {
		t.Fatal("literal not parsed")
	}
}

func TestParseJoins(t *testing.T) {
	stmt := mustParse(t, "SELECT u.name FROM users AS u JOIN orders AS o ON u.id = o.uid LEFT JOIN items i ON o.id = i.oid")
	if len(stmt.Joins) != 2 {
		t.Fatalf("got %d joins", len(stmt.Joins))
	}
	if stmt.Joins[0].Type != JoinInner || stmt.Joins[1].Type != JoinLeft {
		t.Fatal("join types wrong")
	}
	if stmt.Joins[1].Table.Alias != "i" {
		t.Fatal("bare alias not parsed")
	}
}

func TestParseGroupByHavingOrderLimit(t *testing.T) {
	stmt := mustParse(t,
		"SELECT g, COUNT(*) AS n FROM t GROUP BY g HAVING COUNT(*) > 3 ORDER BY n DESC, g ASC LIMIT 7")
	if len(stmt.GroupBy) != 1 || stmt.Having == nil {
		t.Fatal("group by / having missing")
	}
	if len(stmt.OrderBy) != 2 || !stmt.OrderBy[0].Desc || stmt.OrderBy[1].Desc {
		t.Fatal("order by direction wrong")
	}
	if stmt.Limit != 7 {
		t.Fatalf("limit = %d", stmt.Limit)
	}
}

func TestParsePrecedence(t *testing.T) {
	stmt := mustParse(t, "SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
	or := stmt.Where.(*BinaryExpr)
	if or.Op != OpOr {
		t.Fatal("OR must bind loosest")
	}
	and := or.R.(*BinaryExpr)
	if and.Op != OpAnd {
		t.Fatal("AND must bind tighter than OR")
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	stmt := mustParse(t, "SELECT a + b * 2 FROM t")
	add := stmt.Items[0].Expr.(*BinaryExpr)
	if add.Op != OpAdd {
		t.Fatal("+ must be the root")
	}
	if add.R.(*BinaryExpr).Op != OpMul {
		t.Fatal("* must bind tighter")
	}
}

func TestParsePlaceholders(t *testing.T) {
	stmt := mustParse(t, "SELECT a FROM t WHERE a > {p_1} AND b BETWEEN {p_2} AND {p_3}")
	n := 0
	stmt.WalkExprs(func(e Expr) {
		if _, ok := e.(*Placeholder); ok {
			n++
		}
	})
	if n != 3 {
		t.Fatalf("found %d placeholders, want 3", n)
	}
}

func TestParseInListAndSubquery(t *testing.T) {
	stmt := mustParse(t, "SELECT a FROM t WHERE a IN (1, 2, 3) AND b NOT IN (SELECT x FROM s WHERE y > 0)")
	conj := stmt.Where.(*BinaryExpr)
	in1 := conj.L.(*InExpr)
	if len(in1.List) != 3 || in1.Not {
		t.Fatal("IN list wrong")
	}
	in2 := conj.R.(*InExpr)
	if in2.Sub == nil || !in2.Not {
		t.Fatal("NOT IN subquery wrong")
	}
}

func TestParseExistsAndScalarSubquery(t *testing.T) {
	stmt := mustParse(t, "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM s) AND a > (SELECT MIN(x) FROM s)")
	subs := stmt.DirectSubqueries()
	if len(subs) != 2 {
		t.Fatalf("found %d subqueries, want 2", len(subs))
	}
}

func TestParseCase(t *testing.T) {
	stmt := mustParse(t, "SELECT CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN 'neg' ELSE 'zero' END FROM t")
	c := stmt.Items[0].Expr.(*CaseExpr)
	if len(c.Whens) != 2 || c.Else == nil {
		t.Fatal("CASE arms wrong")
	}
}

func TestParseStringEscapes(t *testing.T) {
	stmt := mustParse(t, "SELECT a FROM t WHERE name = 'o''brien'")
	lit := stmt.Where.(*BinaryExpr).R.(*Literal)
	if lit.Value.Str() != "o'brien" {
		t.Fatalf("escaped string = %q", lit.Value.Str())
	}
}

func TestParseLikeIsNullBetweenNot(t *testing.T) {
	stmt := mustParse(t, "SELECT a FROM t WHERE a LIKE 'x%' AND b IS NOT NULL AND c NOT BETWEEN 1 AND 2 AND NOT d > 1")
	found := map[string]bool{}
	stmt.WalkExprs(func(e Expr) {
		switch x := e.(type) {
		case *LikeExpr:
			found["like"] = true
		case *IsNullExpr:
			if x.Not {
				found["isnotnull"] = true
			}
		case *BetweenExpr:
			if x.Not {
				found["notbetween"] = true
			}
		case *UnaryExpr:
			if x.Op == "NOT" {
				found["not"] = true
			}
		}
	})
	for _, k := range []string{"like", "isnotnull", "notbetween", "not"} {
		if !found[k] {
			t.Errorf("missing %s in parse", k)
		}
	}
}

func TestParseDistinctAndCountStar(t *testing.T) {
	stmt := mustParse(t, "SELECT DISTINCT a, COUNT(*), COUNT(DISTINCT b) FROM t")
	if !stmt.Distinct {
		t.Fatal("DISTINCT flag")
	}
	star := stmt.Items[1].Expr.(*FuncCall)
	if !star.Star || star.Name != "COUNT" {
		t.Fatal("COUNT(*)")
	}
	cd := stmt.Items[2].Expr.(*FuncCall)
	if !cd.Distinct {
		t.Fatal("COUNT(DISTINCT ...)")
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	stmt := mustParse(t, "SELECT a FROM t WHERE a > -5 AND b < -2.5")
	var ints, floats int
	stmt.WalkExprs(func(e Expr) {
		if l, ok := e.(*Literal); ok {
			switch l.Value.Kind() {
			case sqltypes.KindInt:
				if l.Value.Int() == -5 {
					ints++
				}
			case sqltypes.KindFloat:
				if l.Value.Float() == -2.5 {
					floats++
				}
			}
		}
	})
	if ints != 1 || floats != 1 {
		t.Fatalf("negative literal folding: ints=%d floats=%d", ints, floats)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a b c FROM t",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t WHERE a > 'unterminated",
		"SELECT a FROM t WHERE a IN (",
		"SELECT a FROM t JOIN s",
		"SELECT a FROM t; SELECT b FROM t",
		"SELECT a FROM t WHERE a > {unclosed",
		"UPDATE t SET a = 1",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Parse("SELECT a FROM t WHERE >")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "syntax error") {
		t.Fatalf("error message %q should mention syntax error", err)
	}
}

// TestRoundTripStability: rendering a parsed statement and re-parsing it
// must yield the same rendering (fixed point after one pass).
func TestRoundTripStability(t *testing.T) {
	cases := []string{
		"SELECT a, b AS x FROM t AS u WHERE a > 5 AND b < 3 OR c = 'q'",
		"SELECT u.name, SUM(o.amt) FROM users AS u JOIN orders AS o ON u.id = o.uid WHERE u.id IN (SELECT uid FROM vip) GROUP BY u.name HAVING COUNT(*) > 2 ORDER BY u.name DESC LIMIT 10",
		"SELECT CASE WHEN a > b THEN 1 ELSE 0 END AS f FROM t WHERE x BETWEEN {p_1} AND {p_2}",
		"SELECT DISTINCT a FROM t LEFT JOIN s ON t.id = s.tid WHERE NOT (a = 1) AND b IS NULL",
		"SELECT COUNT(*), a + b * 2 - c / 3 FROM t WHERE name LIKE 'x%' AND EXISTS (SELECT 1 FROM s WHERE s.id = t.id)",
	}
	for _, sql := range cases {
		s1 := mustParse(t, sql)
		r1 := s1.SQL()
		s2 := mustParse(t, r1)
		r2 := s2.SQL()
		if r1 != r2 {
			t.Errorf("round trip unstable:\n  in:  %s\n  r1:  %s\n  r2:  %s", sql, r1, r2)
		}
	}
}

func TestUniqueFunctionTolerance(t *testing.T) {
	// The paper's Example 2.2 uses UNIQUE(user_id); the dialect tolerates it.
	stmt := mustParse(t, "SELECT UNIQUE(user_id) FROM orders WHERE orders.order_amount > {p_1}")
	if len(stmt.Items) != 1 {
		t.Fatal("UNIQUE() select item")
	}
	if _, ok := stmt.Items[0].Expr.(*ColumnRef); !ok {
		t.Fatalf("UNIQUE(col) should normalize to the column, got %T", stmt.Items[0].Expr)
	}
}

func TestWalkExprsVisitsEverything(t *testing.T) {
	stmt := mustParse(t, "SELECT a+1 FROM t JOIN s ON t.id = s.id WHERE b > 2 GROUP BY c HAVING COUNT(*) > 1 ORDER BY d")
	cols := map[string]bool{}
	stmt.WalkExprs(func(e Expr) {
		if c, ok := e.(*ColumnRef); ok {
			cols[c.Name] = true
		}
	})
	for _, want := range []string{"a", "b", "c", "d", "id"} {
		if !cols[want] {
			t.Errorf("WalkExprs missed column %s", want)
		}
	}
}

func TestScientificNotation(t *testing.T) {
	stmt := mustParse(t, "SELECT a FROM t WHERE a > 1.5e3")
	lit := stmt.Where.(*BinaryExpr).R.(*Literal)
	if lit.Value.Float() != 1500 {
		t.Fatalf("1.5e3 parsed as %v", lit.Value)
	}
}

func TestBoolAndNullLiterals(t *testing.T) {
	stmt := mustParse(t, "SELECT TRUE, FALSE, NULL FROM t")
	if stmt.Items[0].Expr.(*Literal).Value.Bool() != true {
		t.Fatal("TRUE literal")
	}
	if stmt.Items[2].Expr.(*Literal).Value.IsNull() != true {
		t.Fatal("NULL literal")
	}
}

func TestParseErrorEdgeCases(t *testing.T) {
	bad := []string{
		"SELECT CASE END FROM t",                 // CASE without WHEN
		"SELECT CASE WHEN a THEN b FROM t",       // CASE without END
		"SELECT a FROM t LIMIT x",                // non-integer LIMIT
		"SELECT a FROM t GROUP a",                // GROUP without BY
		"SELECT a FROM t ORDER a",                // ORDER without BY
		"SELECT a FROM t WHERE a IS b",           // IS without NULL
		"SELECT a FROM t WHERE a BETWEEN 1 OR 2", // BETWEEN without AND
		"SELECT MAX(*) FROM t",                   // star in non-COUNT
		"SELECT a FROM t WHERE b IN ()",          // empty IN list
		"SELECT a FROM t WHERE {}",               // empty placeholder
		"SELECT a FROM t WHERE a > 'x' AND",      // dangling AND
		"SELECT a FROM 42",                       // numeric table name
		"SELECT a FROM t JOIN s ON",              // missing ON expr
		"SELECT a, FROM t",                       // dangling comma
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestParseTolerantForms(t *testing.T) {
	good := []string{
		"select a from t where a > 1;",                   // lowercase + semicolon
		"SELECT a FROM t WHERE a != 1",                   // != alias for <>
		"SELECT t.a FROM t INNER JOIN s ON t.i = s.i",    // explicit INNER
		"SELECT a FROM t LEFT OUTER JOIN s ON t.i = s.i", // LEFT OUTER
		"SELECT a x FROM t",                              // bare alias
		"SELECT -a FROM t",                               // unary minus on column
		"SELECT a FROM t WHERE a IN (1)",                 // single-element IN
		"SELECT COALESCE(a, 0) FROM t",                   // function args
		"SELECT a FROM t WHERE a > 1e-3",                 // negative exponent
	}
	for _, sql := range good {
		if _, err := Parse(sql); err != nil {
			t.Errorf("Parse(%q): %v", sql, err)
		}
	}
}
