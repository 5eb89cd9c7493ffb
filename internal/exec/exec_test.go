package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/plan"
	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/sqltypes"
	"sqlbarber/internal/storage"
)

// smallDB builds a hand-crafted two-table database with fully known contents
// so results can be checked exactly.
func smallDB(t testing.TB) *storage.Database {
	t.Helper()
	schema := &catalog.Schema{
		Name: "shop",
		Tables: []*catalog.Table{
			{
				Name: "users", PrimaryKey: "id",
				Columns: []catalog.Column{
					{Name: "id", Type: catalog.TypeInt},
					{Name: "name", Type: catalog.TypeString},
					{Name: "age", Type: catalog.TypeInt},
				},
			},
			{
				Name: "orders", PrimaryKey: "oid",
				ForeignKeys: []catalog.ForeignKey{{Column: "uid", RefTable: "users", RefColumn: "id"}},
				Columns: []catalog.Column{
					{Name: "oid", Type: catalog.TypeInt},
					{Name: "uid", Type: catalog.TypeInt},
					{Name: "amount", Type: catalog.TypeFloat},
				},
			},
		},
	}
	db := storage.NewDatabase(schema)
	users := db.Table("users")
	for i, u := range []struct {
		name string
		age  int64
	}{{"ann", 30}, {"bob", 25}, {"cat", 35}, {"dan", 40}} {
		users.Append(storage.Row{sqltypes.NewInt(int64(i + 1)), sqltypes.NewString(u.name), sqltypes.NewInt(u.age)})
	}
	orders := db.Table("orders")
	type o struct {
		oid, uid int64
		amt      float64
	}
	for _, r := range []o{
		{1, 1, 100}, {2, 1, 250}, {3, 2, 50}, {4, 3, 75}, {5, 3, 125}, {6, 3, 300},
	} {
		orders.Append(storage.Row{sqltypes.NewInt(r.oid), sqltypes.NewInt(r.uid), sqltypes.NewFloat(r.amt)})
	}
	db.Analyze()
	return db
}

func runSQL(t *testing.T, db *storage.Database, sql string) *Result {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	q, err := plan.Build(db.Schema, stmt)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	res, err := Run(db, q)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

func TestFilterExact(t *testing.T) {
	db := smallDB(t)
	res := runSQL(t, db, "SELECT name FROM users WHERE age > 28")
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3 (ann, cat, dan)", len(res.Rows))
	}
}

func TestProjectionAndAlias(t *testing.T) {
	db := smallDB(t)
	res := runSQL(t, db, "SELECT age * 2 AS dbl FROM users WHERE id = 2")
	if res.Columns[0] != "dbl" {
		t.Fatalf("column name %q", res.Columns[0])
	}
	if res.Rows[0][0].Int() != 50 {
		t.Fatalf("25*2 = %v", res.Rows[0][0])
	}
}

func TestInnerJoinExact(t *testing.T) {
	db := smallDB(t)
	res := runSQL(t, db, "SELECT u.name, o.amount FROM users AS u JOIN orders AS o ON u.id = o.uid WHERE o.amount >= 100 ORDER BY o.amount")
	// amounts >= 100: 100(ann), 125(cat), 250(ann), 300(cat)
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	if res.Rows[0][1].Float() != 100 || res.Rows[3][1].Float() != 300 {
		t.Fatalf("order by broken: %v", res.Rows)
	}
}

func TestLeftJoinNullExtension(t *testing.T) {
	db := smallDB(t)
	res := runSQL(t, db, "SELECT u.name, o.oid FROM users AS u LEFT JOIN orders AS o ON u.id = o.uid WHERE u.id = 4")
	// dan has no orders.
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	if !res.Rows[0][1].IsNull() {
		t.Fatalf("dan's order id should be NULL, got %v", res.Rows[0][1])
	}
}

func TestAggregatesExact(t *testing.T) {
	db := smallDB(t)
	res := runSQL(t, db, "SELECT COUNT(*), SUM(amount), AVG(amount), MIN(amount), MAX(amount) FROM orders")
	r := res.Rows[0]
	if r[0].Int() != 6 {
		t.Fatalf("count = %v", r[0])
	}
	if r[1].Float() != 900 {
		t.Fatalf("sum = %v", r[1])
	}
	if r[2].Float() != 150 {
		t.Fatalf("avg = %v", r[2])
	}
	if r[3].Float() != 50 || r[4].Float() != 300 {
		t.Fatalf("min/max = %v/%v", r[3], r[4])
	}
}

func TestGroupByHavingExact(t *testing.T) {
	db := smallDB(t)
	res := runSQL(t, db, "SELECT uid, COUNT(*) AS n, SUM(amount) AS total FROM orders GROUP BY uid HAVING COUNT(*) >= 2 ORDER BY total DESC")
	// uid 1: 2 orders / 350; uid 3: 3 orders / 500; uid 2 filtered by HAVING.
	if len(res.Rows) != 2 {
		t.Fatalf("got %d groups", len(res.Rows))
	}
	if res.Rows[0][0].Int() != 3 || res.Rows[0][2].Float() != 500 {
		t.Fatalf("first group: %v", res.Rows[0])
	}
	if res.Rows[1][0].Int() != 1 || res.Rows[1][2].Float() != 350 {
		t.Fatalf("second group: %v", res.Rows[1])
	}
}

func TestGlobalAggregateOverEmptyInput(t *testing.T) {
	db := smallDB(t)
	res := runSQL(t, db, "SELECT COUNT(*), SUM(amount) FROM orders WHERE amount > 100000")
	if len(res.Rows) != 1 {
		t.Fatal("global aggregate must produce one row even over zero input")
	}
	if res.Rows[0][0].Int() != 0 || !res.Rows[0][1].IsNull() {
		t.Fatalf("COUNT/SUM over empty = %v / %v, want 0 / NULL", res.Rows[0][0], res.Rows[0][1])
	}
}

func TestCountDistinct(t *testing.T) {
	db := smallDB(t)
	res := runSQL(t, db, "SELECT COUNT(DISTINCT uid) FROM orders")
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("distinct uids = %v, want 3", res.Rows[0][0])
	}
}

func TestDistinctRows(t *testing.T) {
	db := smallDB(t)
	res := runSQL(t, db, "SELECT DISTINCT uid FROM orders")
	if len(res.Rows) != 3 {
		t.Fatalf("distinct rows = %d, want 3", len(res.Rows))
	}
}

func TestLimitAndOrder(t *testing.T) {
	db := smallDB(t)
	res := runSQL(t, db, "SELECT oid FROM orders ORDER BY amount DESC LIMIT 2")
	if len(res.Rows) != 2 {
		t.Fatalf("limit rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].Int() != 6 || res.Rows[1][0].Int() != 2 {
		t.Fatalf("top-2 by amount: %v", res.Rows)
	}
}

func TestInSubqueryUncorrelated(t *testing.T) {
	db := smallDB(t)
	res := runSQL(t, db, "SELECT name FROM users WHERE id IN (SELECT uid FROM orders WHERE amount > 200)")
	// amounts > 200: 250 (uid 1), 300 (uid 3) -> ann, cat
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
}

func TestCorrelatedScalarSubquery(t *testing.T) {
	db := smallDB(t)
	res := runSQL(t, db, "SELECT u.name, (SELECT SUM(o.amount) FROM orders AS o WHERE o.uid = u.id) AS total FROM users AS u ORDER BY u.id")
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	wantTotals := []any{350.0, 50.0, 500.0, nil}
	for i, want := range wantTotals {
		got := res.Rows[i][1]
		if want == nil {
			if !got.IsNull() {
				t.Fatalf("row %d total = %v, want NULL", i, got)
			}
			continue
		}
		if got.Float() != want.(float64) {
			t.Fatalf("row %d total = %v, want %v", i, got, want)
		}
	}
}

func TestNotExistsCorrelated(t *testing.T) {
	db := smallDB(t)
	res := runSQL(t, db, "SELECT name FROM users AS u WHERE NOT EXISTS (SELECT 1 FROM orders AS o WHERE o.uid = u.id)")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "dan" {
		t.Fatalf("orderless users = %v, want [dan]", res.Rows)
	}
}

func TestCaseExpression(t *testing.T) {
	db := smallDB(t)
	res := runSQL(t, db, "SELECT name, CASE WHEN age >= 35 THEN 'old' WHEN age >= 28 THEN 'mid' ELSE 'young' END FROM users ORDER BY id")
	want := []string{"mid", "young", "old", "old"}
	for i, w := range want {
		if res.Rows[i][1].Str() != w {
			t.Fatalf("case row %d = %v, want %s", i, res.Rows[i][1], w)
		}
	}
}

func TestBetweenInListLike(t *testing.T) {
	db := smallDB(t)
	if n := len(runSQL(t, db, "SELECT oid FROM orders WHERE amount BETWEEN 75 AND 125").Rows); n != 3 {
		t.Fatalf("BETWEEN rows = %d, want 3", n)
	}
	if n := len(runSQL(t, db, "SELECT name FROM users WHERE name IN ('ann', 'dan', 'zed')").Rows); n != 2 {
		t.Fatalf("IN rows = %d, want 2", n)
	}
	if n := len(runSQL(t, db, "SELECT name FROM users WHERE name LIKE '%a%'").Rows); n != 3 {
		t.Fatalf("LIKE rows = %d, want 3 (ann, cat, dan)", n)
	}
	if n := len(runSQL(t, db, "SELECT name FROM users WHERE name LIKE '_a_'").Rows); n != 2 {
		t.Fatalf("LIKE underscore rows = %d, want 2 (cat, dan)", n)
	}
}

func TestThreeValuedLogic(t *testing.T) {
	db := smallDB(t)
	// NULL-producing comparisons must not satisfy WHERE.
	res := runSQL(t, db, "SELECT u.name FROM users AS u LEFT JOIN orders AS o ON u.id = o.uid AND o.amount > 1000 WHERE o.amount > 0")
	if len(res.Rows) != 0 {
		t.Fatalf("NULL > 0 must not pass WHERE; got %d rows", len(res.Rows))
	}
}

func TestScalarFunctions(t *testing.T) {
	db := smallDB(t)
	res := runSQL(t, db, "SELECT ABS(0 - age), LENGTH(name), UPPER(name), COALESCE(NULL, name) FROM users WHERE id = 1")
	r := res.Rows[0]
	if r[0].Int() != 30 || r[1].Int() != 3 || r[2].Str() != "ANN" || r[3].Str() != "ann" {
		t.Fatalf("scalar functions: %v", r)
	}
}

func TestUnknownFunctionError(t *testing.T) {
	db := smallDB(t)
	stmt, _ := sqlparser.Parse("SELECT NOSUCHFN(age) FROM users")
	q, err := plan.Build(db.Schema, stmt)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if _, err := Run(db, q); err == nil {
		t.Fatal("unknown function must error at execution")
	}
}

func TestLikeMatcherProperty(t *testing.T) {
	// `s LIKE s` for plain strings without wildcards is always true, and
	// '%'+s+'%' always matches s.
	f := func(raw string) bool {
		s := sanitize(raw)
		return likeMatch(s, s) && likeMatch(s, "%"+s) && likeMatch(s, s+"%") && likeMatch("x"+s+"y", "_"+s+"_")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// Over a two-letter alphabet with both wildcards, the matcher agrees
	// with the recursive reference on every short string and pattern.
	word := func(r *rand.Rand, alphabet string, max int) string {
		b := make([]byte, r.Intn(max+1))
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		return string(b)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		s, p := word(rng, "ab", 8), word(rng, "ab%_", 6)
		if got, want := likeMatch(s, p), likeRef(s, p); got != want {
			t.Fatalf("likeMatch(%q, %q) = %v, reference %v", s, p, got, want)
		}
	}
}

// TestLikeMatcherPathological pins the linear-backtracking matcher: a
// pattern of many % that almost matches takes the recursive matcher time
// growing with the power of the number of % (62 ms per row for seven %
// against 28 bytes), and this one microseconds.
func TestLikeMatcherPathological(t *testing.T) {
	s := strings.Repeat("a", 28)
	p := strings.Repeat("%a", 7) + "%b"
	if likeMatch(s, p) || !likeMatch(s+"b", p) {
		t.Fatalf("likeMatch(%q, %q) wrong", s, p)
	}
	if likeRef(s[:12], p) != likeMatch(s[:12], p) {
		t.Fatal("disagrees with the reference on a short prefix")
	}
	// 30 % against 4 KiB would not finish with the recursive matcher.
	long, many := strings.Repeat("a", 4096), strings.Repeat("%a", 30)+"%b"
	start := time.Now()
	for i := 0; i < 10; i++ {
		if likeMatch(long, many) {
			t.Fatal("matched a string without b")
		}
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("10 pathological matches took %v", d)
	}
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s) && i < 12; i++ {
		c := s[i]
		if c == '%' || c == '_' {
			continue
		}
		out = append(out, c)
	}
	return string(out)
}

// keyDB holds t(id, name, k, i, f, s): a TEXT column name and a value x
// of any kind split over mixedColumns (read back through mixedSQL), which
// mix the values grouping must keep apart or merge: NULL beside the string
// 'NULL', -0.0 beside +0.0 and int 0, float 2.5 beside the string '2.5'.
func keyDB(t testing.TB) *storage.Database {
	t.Helper()
	schema := &catalog.Schema{
		Name: "keys",
		Tables: []*catalog.Table{{Name: "t", Columns: append([]catalog.Column{
			{Name: "id", Type: catalog.TypeInt},
			{Name: "name", Type: catalog.TypeString},
		}, mixedColumns...)}},
	}
	db := storage.NewDatabase(schema)
	negZero := sqltypes.NewFloat(math.Copysign(0, -1))
	for i, r := range []struct{ name, x sqltypes.Value }{
		{sqltypes.Null, negZero},
		{sqltypes.NewString("NULL"), sqltypes.NewFloat(0)},
		{sqltypes.NewString("a"), sqltypes.NewInt(0)},
		{sqltypes.NewString("a"), sqltypes.NewFloat(2.5)},
		{sqltypes.Null, sqltypes.NewString("2.5")},
	} {
		db.Table("t").Append(append(storage.Row{sqltypes.NewInt(int64(i)), r.name}, splitValue(r.x)...))
	}
	return db
}

// TestGroupAndDistinctKeysFollowSQLEquality pins grouping, DISTINCT and
// COUNT(DISTINCT) to SQL equality within a kind class: NULL groups only
// with NULL (never with the string 'NULL'), -0.0, +0.0 and int 0 are one
// key (as WHERE x = 0 says), and the number 2.5 is not the string '2.5'.
func TestGroupAndDistinctKeysFollowSQLEquality(t *testing.T) {
	db := keyDB(t)
	x := strings.NewReplacer("$x", "("+mixedSQL("t")+")")
	run := func(sql string) *Result { t.Helper(); return runSQL(t, db, x.Replace(sql)) }
	byName := map[string]int64{}
	for _, r := range run("SELECT name, COUNT(*) FROM t GROUP BY name").Rows {
		byName[r[0].Kind().String()+":"+r[0].String()] = r[1].Int()
	}
	if want := map[string]int64{"NULL:NULL": 2, "TEXT:NULL": 1, "TEXT:a": 2}; fmt.Sprint(byName) != fmt.Sprint(want) {
		t.Errorf("GROUP BY name = %v, want %v", byName, want)
	}
	if n := len(run("SELECT DISTINCT name FROM t").Rows); n != 3 {
		t.Errorf("SELECT DISTINCT name: %d rows, want 3 (NULL, 'NULL', 'a')", n)
	}
	if n := len(run("SELECT $x FROM t WHERE $x = 0").Rows); n != 3 {
		t.Fatalf("WHERE x = 0: %d rows, want 3", n)
	}
	zeros := run("SELECT $x, COUNT(*) FROM t WHERE $x = 0 GROUP BY $x").Rows
	if len(zeros) != 1 || zeros[0][1].Int() != 3 {
		t.Errorf("GROUP BY x over the zeros = %v, want one group of 3", zeros)
	}
	if n := len(run("SELECT DISTINCT $x FROM t WHERE $x = 0").Rows); n != 1 {
		t.Errorf("SELECT DISTINCT x over the zeros: %d rows, want 1", n)
	}
	// Two keys: (NULL, -0.0) and ('NULL', 0.0) stay apart; so do the
	// multi-key forms of the rest.
	if n := len(run("SELECT name, $x, COUNT(*) FROM t GROUP BY name, $x").Rows); n != 5 {
		t.Errorf("GROUP BY name, x: %d groups, want 5", n)
	}
	r := run("SELECT COUNT(DISTINCT $x), COUNT(DISTINCT name) FROM t").Rows[0]
	if r[0].Int() != 3 || r[1].Int() != 2 {
		t.Errorf("COUNT(DISTINCT x), COUNT(DISTINCT name) = %v, %v; want 3 (0, 2.5, '2.5') and 2 ('NULL', 'a')", r[0], r[1])
	}
}

// TestSelfReferentialAlias pins that an output alias named like a column
// hides nothing from its own expression or from WHERE: both read the column,
// so `age + 1 AS age` returns age + 1 for the rows WHERE age selects.
func TestSelfReferentialAlias(t *testing.T) {
	db := smallDB(t)
	for _, tc := range []struct {
		sql, ages string
		want      func(age int64) int64
	}{
		{"SELECT age + 1 AS age FROM users", "SELECT age FROM users", func(a int64) int64 { return a + 1 }},
		{"SELECT age * 2 AS age FROM users WHERE age > 28", "SELECT age FROM users WHERE age > 28", func(a int64) int64 { return a * 2 }},
	} {
		stmt, err := sqlparser.Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		q, err := plan.Build(db.Schema, stmt)
		if err != nil {
			t.Fatalf("%s: plan: %v", tc.sql, err)
		}
		res, err := Run(db, q)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		ages := runSQL(t, db, tc.ages).Rows
		if len(res.Rows) != len(ages) || len(ages) == 0 {
			t.Fatalf("%s: %d rows, want %d (and some)", tc.sql, len(res.Rows), len(ages))
		}
		for i, r := range res.Rows {
			if want := tc.want(ages[i][0].Int()); r[0].Int() != want {
				t.Errorf("%s: row %d = %v, want %d", tc.sql, i, r[0], want)
			}
		}
	}
}

// TestPlainColumnAliasRows pins the rows of GROUP BY, HAVING and ORDER BY
// naming an output alias whose expression is a plain column.
func TestPlainColumnAliasRows(t *testing.T) {
	db := smallDB(t)
	for _, tc := range []struct {
		sql  string
		want string
	}{
		{"SELECT name AS n FROM users ORDER BY n DESC", "[dan] [cat] [bob] [ann]"},
		{"SELECT uid AS u, COUNT(*) FROM orders GROUP BY u ORDER BY u", "[1 2] [2 1] [3 3]"},
		{"SELECT uid AS u, SUM(amount) FROM orders GROUP BY u HAVING u > 1 ORDER BY u DESC", "[3 500] [2 50]"},
	} {
		var rows []string
		for _, r := range runSQL(t, db, tc.sql).Rows {
			rows = append(rows, fmt.Sprint(r))
		}
		if got := strings.Join(rows, " "); got != tc.want {
			t.Errorf("%s: rows %s, want %s", tc.sql, got, tc.want)
		}
	}
}

// TestAggregateWithoutArgumentIsAnError pins that SUM(), which the parser
// accepts, fails the query rather than reading a missing argument.
func TestAggregateWithoutArgumentIsAnError(t *testing.T) {
	db := smallDB(t)
	stmt, err := sqlparser.Parse("SELECT SUM() FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	q, err := plan.Build(db.Schema, stmt)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if _, err := Run(db, q); err == nil {
		t.Fatal("SUM() must fail at execution")
	}
}
