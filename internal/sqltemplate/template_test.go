package sqltemplate

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"testing/quick"

	"sqlbarber/internal/datagen"
	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/sqltypes"
)

func TestPlaceholdersOrdered(t *testing.T) {
	tm := MustParse("SELECT a FROM t WHERE a > {p_2} AND b < {p_1} AND a > {p_2}")
	got := tm.Placeholders()
	if len(got) != 2 || got[0] != "p_2" || got[1] != "p_1" {
		t.Fatalf("Placeholders = %v", got)
	}
}

func TestFeaturesCounting(t *testing.T) {
	tm := MustParse(`SELECT u.name, SUM(o.amount), COUNT(*) FROM users AS u
		JOIN orders AS o ON u.id = o.uid
		JOIN items AS i ON o.id = i.oid
		WHERE o.amount > {p_1} AND u.id IN (SELECT uid FROM vip WHERE score > {p_2})
		GROUP BY u.name`)
	f := tm.Features()
	if f.NumJoins != 2 {
		t.Errorf("joins = %d, want 2", f.NumJoins)
	}
	if f.NumTables != 4 { // users, orders, items, vip
		t.Errorf("tables = %d, want 4", f.NumTables)
	}
	if f.NumAggregations != 2 {
		t.Errorf("aggs = %d, want 2", f.NumAggregations)
	}
	if f.NumPredicates != 2 {
		t.Errorf("predicates = %d, want 2", f.NumPredicates)
	}
	if !f.HasGroupBy || !f.HasNestedQuery {
		t.Error("groupby/nested flags wrong")
	}
	if f.HasComplexScalar {
		t.Error("no complex scalar here")
	}
}

func TestFeaturesSubqueryAggregatesNotCounted(t *testing.T) {
	tm := MustParse("SELECT a FROM t WHERE a > (SELECT MIN(x) FROM s WHERE x < {p_1})")
	f := tm.Features()
	if f.NumAggregations != 0 {
		t.Fatalf("nested MIN counted as workload aggregation: %d", f.NumAggregations)
	}
	if !f.HasNestedQuery {
		t.Fatal("scalar subquery must count as nested")
	}
}

func TestFeaturesAggregatesInLikePattern(t *testing.T) {
	tm := MustParse("SELECT COUNT(*) FROM nation GROUP BY n_regionkey HAVING MIN(n_name) LIKE MAX(n_name)")
	if n := tm.Features().NumAggregations; n != 3 {
		t.Fatalf("aggs = %d, want 3 (COUNT, and MIN LIKE MAX in HAVING)", n)
	}
}

func TestFeaturesSubqueryInLikePatternIsNested(t *testing.T) {
	tm := MustParse("SELECT n_name FROM nation WHERE n_name LIKE (SELECT MIN(p_name) FROM part)")
	f := tm.Features()
	if !f.HasNestedQuery || f.NumTables != 2 {
		t.Fatalf("LIKE-pattern subquery: nested=%v tables=%d, want true and 2", f.HasNestedQuery, f.NumTables)
	}
}

func TestFeaturesComplexScalar(t *testing.T) {
	cases := []struct {
		sql  string
		want bool
	}{
		{"SELECT a FROM t", false},
		{"SELECT a + 1 FROM t", false},
		{"SELECT a * 2 + b / 3 FROM t", true},
		{"SELECT CASE WHEN a > b THEN 1 ELSE 0 END FROM t", true},
		{"SELECT SUM(a) FROM t", false},
		{"SELECT (a + 1) * (b + 2) FROM t", true},
	}
	for _, c := range cases {
		if got := MustParse(c.sql).Features().HasComplexScalar; got != c.want {
			t.Errorf("HasComplexScalar(%q) = %v, want %v", c.sql, got, c.want)
		}
	}
}

func TestInstantiate(t *testing.T) {
	tm := MustParse("SELECT a FROM t WHERE a > {p_1} AND name = {p_2}")
	sql, err := tm.Instantiate(map[string]sqltypes.Value{
		"p_1": sqltypes.NewInt(5),
		"p_2": sqltypes.NewString("bob's"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "a > 5") || !strings.Contains(sql, "'bob''s'") {
		t.Fatalf("instantiated: %s", sql)
	}
}

func TestInstantiateMissingValue(t *testing.T) {
	tm := MustParse("SELECT a FROM t WHERE a > {p_1}")
	if _, err := tm.Instantiate(nil); err == nil {
		t.Fatal("missing placeholder value must error")
	}
}

func TestBindPlaceholders(t *testing.T) {
	db := datagen.TPCH(1, 0.05)
	tm := MustParse(`SELECT l.l_orderkey FROM lineitem AS l JOIN orders AS o ON l.l_orderkey = o.o_orderkey
		WHERE l.l_quantity > {p_1} AND o.o_totalprice BETWEEN {p_2} AND {p_3} AND l.l_partkey IN ({p_4}, 5)`)
	bindings, err := tm.BindPlaceholders(db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != 4 {
		t.Fatalf("got %d bindings", len(bindings))
	}
	want := map[string]string{
		"p_1": "l_quantity", "p_2": "o_totalprice", "p_3": "o_totalprice", "p_4": "l_partkey",
	}
	for _, b := range bindings {
		if b.Column.Name != want[b.Name] {
			t.Errorf("%s bound to %s, want %s", b.Name, b.Column.Name, want[b.Name])
		}
	}
}

func TestBindPlaceholdersSubquery(t *testing.T) {
	db := datagen.TPCH(1, 0.05)
	tm := MustParse("SELECT o_orderkey FROM orders WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal >= {p_1})")
	bindings, err := tm.BindPlaceholders(db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != 1 || bindings[0].Column.Name != "c_acctbal" {
		t.Fatalf("subquery binding: %+v", bindings)
	}
}

func TestBindPlaceholdersUnbound(t *testing.T) {
	db := datagen.TPCH(1, 0.05)
	tm := MustParse("SELECT o_orderkey FROM orders WHERE {p_1} > {p_2}")
	if _, err := tm.BindPlaceholders(db.Schema); err == nil {
		t.Fatal("placeholder-vs-placeholder comparison cannot bind")
	}
}

func TestBindPlaceholdersUnqualified(t *testing.T) {
	db := datagen.TPCH(1, 0.05)
	tm := MustParse("SELECT o_orderkey FROM orders WHERE o_totalprice > {p_1}")
	bindings, err := tm.BindPlaceholders(db.Schema)
	if err != nil || len(bindings) != 1 {
		t.Fatalf("unqualified binding failed: %v %v", bindings, err)
	}
	if bindings[0].Table.Name != "orders" {
		t.Fatalf("bound to table %s", bindings[0].Table.Name)
	}
}

func TestClone(t *testing.T) {
	tm := MustParse("SELECT a FROM t WHERE a > {p_1}")
	tm.ID = 7
	c := tm.Clone()
	if c.ID != 7 || c.SQL() != tm.SQL() {
		t.Fatal("clone mismatch")
	}
	if c.Stmt == tm.Stmt {
		t.Fatal("clone must re-parse, not share the AST")
	}
}

func TestParseInvalid(t *testing.T) {
	if _, err := Parse("SELECT FROM"); err == nil {
		t.Fatal("invalid template must error")
	}
}

func TestFeaturesDistinctAndOrderBy(t *testing.T) {
	f := MustParse("SELECT DISTINCT a FROM t ORDER BY a").Features()
	if !f.HasDistinct || !f.HasOrderBy {
		t.Fatal("distinct/orderby flags")
	}
}

// TestInstantiateParsesProperty: for arbitrary numeric values, instantiating
// a multi-placeholder template yields parseable SQL with no placeholders
// left.
func TestInstantiateParsesProperty(t *testing.T) {
	tm := MustParse("SELECT a FROM t WHERE a > {p_1} AND b BETWEEN {p_2} AND {p_3} AND c IN ({p_4}, 7)")
	f := func(a int32, b float64, c int16, d int8) bool {
		if b != b { // NaN renders unparsable; skip
			return true
		}
		sql, err := tm.Instantiate(map[string]sqltypes.Value{
			"p_1": sqltypes.NewInt(int64(a)),
			"p_2": sqltypes.NewFloat(b),
			"p_3": sqltypes.NewInt(int64(c)),
			"p_4": sqltypes.NewInt(int64(d)),
		})
		if err != nil {
			return false
		}
		if strings.Contains(sql, "{") {
			return false
		}
		stmt, err := sqlparser.Parse(sql)
		return err == nil && stmt != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestInstantiateStringEscapingProperty: arbitrary strings (including quote
// characters) survive instantiation into parseable SQL.
func TestInstantiateStringEscapingProperty(t *testing.T) {
	tm := MustParse("SELECT a FROM t WHERE name = {p_1}")
	f := func(raw string) bool {
		s := sanitizeStr(raw)
		sql, err := tm.Instantiate(map[string]sqltypes.Value{"p_1": sqltypes.NewString(s)})
		if err != nil {
			return false
		}
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			return false
		}
		lit, ok := stmt.Where.(*sqlparser.BinaryExpr).R.(*sqlparser.Literal)
		return ok && lit.Value.Str() == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// sanitizeStr keeps instantiation-safe characters: the template engine works
// at text level, so strings containing placeholder braces are out of scope.
func sanitizeStr(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == '{' || r == '}' || r == '\n' || r == '\r' {
			continue
		}
		out = append(out, r)
	}
	if len(out) > 24 {
		out = out[:24]
	}
	return string(out)
}

// regexpInstantiate is the regular-expression substitution Instantiate's
// scanner replaced, kept as its differential reference.
func regexpInstantiate(text string, vals map[string]sqltypes.Value) (string, []string) {
	var missing []string
	out := regexp.MustCompile(`\{([^{}]+)\}`).ReplaceAllStringFunc(text, func(m string) string {
		name := strings.TrimSpace(m[1 : len(m)-1])
		v, ok := vals[name]
		if !ok {
			missing = append(missing, name)
			return m
		}
		return v.SQLLiteral()
	})
	return out, missing
}

// TestInstantiateMatchesRegexp checks the placeholder scanner against the
// regular expression on texts drawn from braces, spaces and name bytes, so
// empty, nested, unclosed and padded placeholders all occur.
func TestInstantiateMatchesRegexp(t *testing.T) {
	vals := map[string]sqltypes.Value{"a": sqltypes.NewInt(1), "b": sqltypes.NewString("x'y"), "a b": sqltypes.NewFloat(2.5)}
	rng := rand.New(rand.NewSource(1))
	alphabet := "{}{} ab"
	for n := 0; n < 20000; n++ {
		text := make([]byte, rng.Intn(14))
		for i := range text {
			text[i] = alphabet[rng.Intn(len(alphabet))]
		}
		want, missing := regexpInstantiate(string(text), vals)
		got, err := (&Template{Text: string(text)}).Instantiate(vals)
		if (err != nil) != (len(missing) > 0) {
			t.Fatalf("%q: error %v, reference misses %v", text, err, missing)
		}
		if err != nil {
			if want := fmt.Sprintf("sqltemplate: missing values for placeholders %v", missing); err.Error() != want {
				t.Fatalf("%q: error %q, want %q", text, err, want)
			}
			continue
		}
		if got != want {
			t.Fatalf("%q: got %q, want %q", text, got, want)
		}
	}
}
