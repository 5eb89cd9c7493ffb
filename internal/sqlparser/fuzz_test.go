package sqlparser

import (
	"strings"
	"testing"

	"sqlbarber/internal/sqltypes"
)

// roundTripCorpus seeds the fuzzer and doubles as a deterministic regression
// table: every entry must parse, render, and re-parse to a rendering
// fixpoint. The entries cover the grammar the §4 generator emits — joins,
// aggregation, HAVING, subqueries, CASE, BETWEEN/IN/LIKE/IS NULL — plus
// adversarial literals and placeholders.
var roundTripCorpus = []string{
	"SELECT 1",
	"SELECT * FROM users",
	"SELECT id, name FROM users WHERE age > 30 ORDER BY name DESC LIMIT 10",
	"SELECT u.name, COUNT(*) AS n FROM users AS u JOIN orders AS o ON u.id = o.user_id GROUP BY u.name HAVING COUNT(*) > 2",
	"SELECT name FROM users WHERE age BETWEEN {p_lo} AND {p_hi}",
	"SELECT name FROM users WHERE city IN ('berlin', 'paris', 'tokyo')",
	"SELECT name FROM users WHERE name LIKE 'a%' AND city IS NOT NULL",
	"SELECT name FROM users WHERE EXISTS (SELECT 1 FROM orders WHERE orders.user_id = users.id)",
	"SELECT CASE WHEN age > 65 THEN 'senior' WHEN age > 18 THEN 'adult' ELSE 'minor' END FROM users",
	"SELECT AVG(amount), MIN(amount), MAX(amount) FROM orders WHERE status = {p_status}",
	"SELECT -age + 2 * 3 FROM users WHERE NOT (age > 10 OR age < 5)",
	"SELECT name FROM users WHERE id IN (SELECT user_id FROM orders)",
	"SELECT o.amount / 2.5 FROM orders AS o LEFT JOIN users AS u ON o.user_id = u.id",
	"SELECT 1.5e3, .5, 42 FROM users",
	// Adversarial literals: quote doubling, placeholder-shaped strings,
	// comment-shaped strings, unicode, braces.
	"SELECT name FROM users WHERE name = 'o''brien'",
	"SELECT name FROM users WHERE name = '{p_1}'",
	"SELECT name FROM users WHERE name = '-- not a comment'",
	"SELECT name FROM users WHERE name = '}{'",
	"SELECT name FROM users WHERE name = 'über ''quoted'' {brace}'",
	"SELECT name FROM users WHERE name = ''",
	// Negated float zero: -0.0 must not render as "-0" (an integer).
	"SELECT---------------.0",
	"SELECT -0.0, - -.0, -0 FROM users",
	// Placeholders with odd-but-legal names.
	"SELECT name FROM users WHERE age > { p_spaced }",
	"SELECT name FROM users WHERE age > {p-1.x}",
	"SELECT name FROM users WHERE age > {p_1} AND age < {p_1}",
	"SELECT 1;",
}

// checkRoundTrip asserts the core property: any SQL the parser accepts must
// render to text the parser accepts again, and rendering must be a fixpoint
// (render ∘ parse ∘ render = render). This is exactly what the pipeline
// relies on when templates flow parse → placeholder rewrite → render →
// DBMS, so a fuzz finding here is a real bug, not noise.
func checkRoundTrip(t *testing.T, sql string) {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		return // rejected input: nothing to round-trip
	}
	r1 := stmt.SQL()
	stmt2, err := Parse(r1)
	if err != nil {
		t.Fatalf("rendering of accepted input does not re-parse\ninput:  %q\nrender: %q\nerror:  %v", sql, r1, err)
	}
	r2 := stmt2.SQL()
	if r1 != r2 {
		t.Fatalf("rendering is not a fixpoint\ninput:    %q\nrender 1: %q\nrender 2: %q", sql, r1, r2)
	}
}

func TestRenderParseRoundTripCorpus(t *testing.T) {
	for _, sql := range roundTripCorpus {
		stmt, err := Parse(sql)
		if err != nil {
			t.Errorf("corpus entry rejected: %q: %v", sql, err)
			continue
		}
		_ = stmt
		checkRoundTrip(t, sql)
	}
}

func FuzzParse(f *testing.F) {
	for _, sql := range roundTripCorpus {
		f.Add(sql)
	}
	f.Add("SELECT")
	f.Add("SELECT FROM WHERE")
	f.Add("SELECT 'unterminated")
	f.Add("SELECT {unclosed FROM t")
	f.Add("SELECT ((((1))))")
	f.Add(strings.Repeat("SELECT 1 FROM (", 50))
	f.Fuzz(func(t *testing.T, sql string) {
		checkRoundTrip(t, sql)
	})
}

// FuzzPlaceholderRewrite drives the placeholder rewriting path — the §5.3
// search's substitution of concrete predicate values — with adversarial
// string literals and placeholder names, asserting the rewrite touches only
// the placeholder and never corrupts a neighbouring literal.
func FuzzPlaceholderRewrite(f *testing.F) {
	f.Add("o'brien", "p_1", int64(7))
	f.Add("{p_1}", "p_1", int64(0))
	f.Add("}{", "p-x.1", int64(-3))
	f.Add("'' ''", "p 2", int64(123456))
	f.Add("-- drop", "p_lo", int64(42))
	f.Fuzz(func(t *testing.T, lit string, name string, val int64) {
		name = strings.TrimSpace(name)
		if name == "" || strings.ContainsAny(name, "{}") {
			return // lexer-invalid placeholder name; nothing to test
		}
		esc := strings.ReplaceAll(lit, "'", "''")
		sql := "SELECT name FROM users WHERE name = '" + esc + "' AND age > {" + name + "}"
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatalf("constructed SQL rejected: %q: %v", sql, err)
		}
		var phCount, litMatch int
		stmt.WalkExprs(func(e Expr) {
			switch e := e.(type) {
			case *Placeholder:
				phCount++
				if e.Name != name {
					t.Fatalf("placeholder name = %q, want %q (sql %q)", e.Name, name, sql)
				}
			case *Literal:
				if e.Value.Kind() == sqltypes.KindString && e.Value.Str() == lit {
					litMatch++
				}
			}
		})
		if phCount != 1 {
			t.Fatalf("found %d placeholders, want 1 (sql %q)", phCount, sql)
		}
		if litMatch != 1 {
			t.Fatalf("string literal %q lost in parse (sql %q)", lit, sql)
		}
		// Substitute the placeholder with a concrete value, render, and
		// verify the literal survived and the placeholder is gone.
		stmt.RewriteExprs(func(e Expr) Expr {
			if _, ok := e.(*Placeholder); ok {
				return &Literal{Value: sqltypes.NewInt(val)}
			}
			return e
		})
		out := stmt.SQL()
		if strings.Contains(out, "{") || strings.Contains(out, "}") {
			// The braces may only come from the string literal itself.
			if !strings.ContainsAny(lit, "{}") {
				t.Fatalf("rewrite left placeholder syntax behind: %q", out)
			}
		}
		re, err := Parse(out)
		if err != nil {
			t.Fatalf("rewritten SQL does not re-parse: %q: %v", out, err)
		}
		var reLitMatch, rePh int
		re.WalkExprs(func(e Expr) {
			switch e := e.(type) {
			case *Placeholder:
				rePh++
			case *Literal:
				if e.Value.Kind() == sqltypes.KindString && e.Value.Str() == lit {
					reLitMatch++
				}
			}
		})
		if rePh != 0 {
			t.Fatalf("placeholder survived rewrite: %q", out)
		}
		if reLitMatch != 1 {
			t.Fatalf("string literal %q corrupted by rewrite: %q", lit, out)
		}
	})
}
