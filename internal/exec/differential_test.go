package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"sqlbarber/internal/datagen"
	"sqlbarber/internal/plan"
	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/storage"
)

// This file differentially tests the compiled executor (predicate pushdown,
// hash joins, residual filters, typed predicates, keyed grouping, cached
// subqueries) against the brute-force reference of ref_test.go on randomly
// generated queries. Any divergence is a correctness bug in compilation,
// conjunct placement, join algorithms, grouping or null handling.

// refEval evaluates q with the reference executor.
func refEval(t testing.TB, db *storage.Database, q *plan.Query) ([]storage.Row, error) {
	t.Helper()
	return newRef(db).query(q, nil)
}

func canonical(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.Kind().String() + ":" + v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// genTable is one table genQuery draws from: numeric and text columns.
type genTable struct {
	name string
	num  []string
	str  []string
}

var genTables = []genTable{
	{"region", []string{"r_regionkey"}, []string{"r_name"}},
	{"nation", []string{"n_nationkey", "n_regionkey"}, []string{"n_name"}},
	{"supplier", []string{"s_suppkey", "s_nationkey", "s_acctbal"}, []string{"s_name"}},
	{"customer", []string{"c_custkey", "c_nationkey", "c_acctbal"}, []string{"c_mktsegment"}},
}

// genQuery builds a random query over the small TPC-H tables: an optional
// equi-join, one to three predicates (comparisons against int and float
// constants on either side and against columns, BETWEEN, IN lists, LIKE,
// uncorrelated IN subqueries and scalar subqueries, which may be NULL) glued
// by AND or OR and sometimes negated, and one of three output shapes: a
// projection (sometimes DISTINCT), a GROUP BY over one or two keys with
// COUNT, COUNT(DISTINCT), SUM, AVG, MIN and MAX (sometimes with HAVING), or
// a global aggregate.
func genQuery(rng *rand.Rand) string {
	t1 := genTables[rng.Intn(len(genTables))]
	joined := ""
	var t2 genTable
	switch {
	case t1.name == "nation" && rng.Intn(2) == 0:
		t2 = genTables[0]
		joined = " JOIN region AS b ON a.n_regionkey = b.r_regionkey"
	case (t1.name == "supplier" || t1.name == "customer") && rng.Intn(2) == 0:
		t2 = genTables[1]
		joined = fmt.Sprintf(" JOIN nation AS b ON a.%s_nationkey = b.n_nationkey", t1.name[:1])
	}
	var cols, strs []string
	for _, c := range t1.num {
		cols = append(cols, "a."+c)
	}
	for _, c := range t1.str {
		strs = append(strs, "a."+c)
	}
	if joined != "" {
		for _, c := range t2.num {
			cols = append(cols, "b."+c)
		}
		for _, c := range t2.str {
			strs = append(strs, "b."+c)
		}
	}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	ops := []string{">", "<", ">=", "<=", "=", "<>"}
	var preds []string
	for k := 0; k < 1+rng.Intn(3); k++ {
		c := pick(cols)
		switch rng.Intn(7) {
		case 0:
			// Column against a constant, either way round, int or float.
			k := fmt.Sprint(rng.Intn(30))
			if strings.HasSuffix(c, "acctbal") {
				k = fmt.Sprint(rng.Intn(11000) - 1000)
			}
			if rng.Intn(3) == 0 {
				k += ".5"
			}
			if rng.Intn(2) == 0 {
				preds = append(preds, fmt.Sprintf("%s %s %s", k, pick(ops), c))
			} else {
				preds = append(preds, fmt.Sprintf("%s %s %s", c, pick(ops), k))
			}
		case 1:
			preds = append(preds, fmt.Sprintf("%s BETWEEN %d AND %d", c, rng.Intn(10), 10+rng.Intn(20)))
		case 2:
			preds = append(preds, fmt.Sprintf("%s IN (%d, %d, %d)", c, rng.Intn(25), rng.Intn(25), rng.Intn(25)))
		case 3:
			preds = append(preds, fmt.Sprintf("%s %s %s", c, pick(ops), pick(cols)))
		case 4:
			preds = append(preds, fmt.Sprintf("%s IN (SELECT n_nationkey FROM nation WHERE n_regionkey %s %d)",
				c, pick(ops), rng.Intn(6)))
		case 5:
			agg := []string{"MAX(r_regionkey)", "MIN(r_regionkey)", "COUNT(*)"}[rng.Intn(3)]
			// MIN and MAX of no rows are NULL.
			preds = append(preds, fmt.Sprintf("%s %s (SELECT %s FROM region WHERE r_regionkey < %d)",
				c, pick(ops), agg, rng.Intn(7)-2))
		default:
			preds = append(preds, fmt.Sprintf("%s LIKE '%s'", pick(strs), []string{"%1%", "N%0_", "%A%E%", "_%"}[rng.Intn(4)]))
		}
	}
	glue := " AND "
	if rng.Intn(3) == 0 {
		glue = " OR "
	}
	where := strings.Join(preds, glue)
	if rng.Intn(3) == 0 {
		// NOT tells NULL from false, which a bare WHERE does not.
		where = "NOT (" + where + ")"
	}
	from := " FROM " + t1.name + " AS a" + joined + " WHERE " + where
	aggs := func() string {
		var out []string
		for k := 0; k < 1+rng.Intn(4); k++ {
			switch x := pick(cols); rng.Intn(8) {
			case 0:
				out = append(out, "COUNT(*)")
			case 1:
				out = append(out, "SUM("+x+")")
			case 2:
				out = append(out, "AVG("+x+")")
			case 3:
				out = append(out, "MIN("+x+")")
			case 4:
				out = append(out, "MAX("+x+")")
			case 5:
				out = append(out, "COUNT(DISTINCT "+x+")")
			case 6:
				out = append(out, "COUNT(DISTINCT "+pick(strs)+")")
			default:
				out = append(out, "MAX("+pick(strs)+")")
			}
		}
		return strings.Join(out, ", ")
	}
	switch rng.Intn(3) {
	case 0:
		keys := []string{pick(append(append([]string{}, cols...), strs...))}
		if rng.Intn(2) == 0 {
			keys = append(keys, pick(cols))
		}
		having := ""
		if rng.Intn(3) == 0 {
			having = fmt.Sprintf(" HAVING COUNT(*) > %d", rng.Intn(3))
		}
		k := strings.Join(keys, ", ")
		return "SELECT " + k + ", " + aggs() + from + " GROUP BY " + k + having
	case 1:
		return "SELECT " + aggs() + from
	}
	distinct := ""
	if rng.Intn(3) == 0 {
		distinct = "DISTINCT "
	}
	return "SELECT " + distinct + pick(cols) + ", " + cols[0] + from
}

// checkDifferential runs sql, which must be valid, through the compiled
// executor and the reference and fails on an error from either or on any
// difference in the row multiset (values compared with their kinds). It
// also fails unless Program.Probe returns Run's RowsTouched and error.
func checkDifferential(t testing.TB, db *storage.Database, sql string) {
	t.Helper()
	q := planSQL(t, db, sql)
	got, err := probeLikeRun(t, db, q)
	if err != nil {
		t.Fatalf("executor: %v\nSQL: %s", err, sql)
	}
	want, err := refEval(t, db, q)
	if err != nil {
		t.Fatalf("reference: %v\nSQL: %s", err, sql)
	}
	g, w := canonical(got.Rows), canonical(want)
	if len(g) != len(w) {
		t.Fatalf("%d rows vs reference %d\nSQL: %s", len(g), len(w), sql)
	}
	for k := range g {
		if g[k] != w[k] {
			t.Fatalf("row %d: %q vs reference %q\nSQL: %s", k, g[k], w[k], sql)
		}
	}
}

// probeLikeRun runs q's program through Run and through Probe and fails
// unless both return the same error and, on success, the same RowsTouched.
func probeLikeRun(t testing.TB, db *storage.Database, q *plan.Query) (*Result, error) {
	t.Helper()
	prog := Compile(q, nil)
	res, err := prog.Run(db, nil, new(Arena))
	touched, probeErr := prog.Probe(db, nil, new(Arena))
	if fmt.Sprint(err) != fmt.Sprint(probeErr) {
		t.Fatalf("Run error %v, Probe error %v\nSQL: %s", err, probeErr, q.Stmt.SQL())
	}
	if err == nil && res.RowsTouched != touched {
		t.Fatalf("Run touched %d rows, Probe %d\nSQL: %s", res.RowsTouched, touched, q.Stmt.SQL())
	}
	return res, err
}

func planSQL(t testing.TB, db *storage.Database, sql string) *plan.Query {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse (%s): %v", sql, err)
	}
	q, err := plan.Build(db.Schema, stmt)
	if err != nil {
		t.Fatalf("plan (%s): %v", sql, err)
	}
	return q
}

// TestExecutorFailsWhereReferenceFails lists statements that plan but must
// fail at execution, and checks that both executors, and a measured probe,
// reject each one.
func TestExecutorFailsWhereReferenceFails(t *testing.T) {
	db := datagen.TPCH(2, 0.1)
	for _, sql := range []string{
		"SELECT r_regionkey FROM region WHERE r_regionkey = (SELECT n_nationkey FROM nation)",
		"SELECT (SELECT n_name FROM nation WHERE n_regionkey = r_regionkey) FROM region",
		"SELECT *, COUNT(*) FROM region",
		"SELECT r_regionkey FROM region WHERE NOSUCHFN(r_regionkey) > 0",
	} {
		q := planSQL(t, db, sql)
		if _, err := probeLikeRun(t, db, q); err == nil {
			t.Errorf("executor and probe accept %s", sql)
		}
		if _, err := refEval(t, db, q); err == nil {
			t.Errorf("reference accepts %s", sql)
		}
	}
}

// TestCompilerMarksInertPhases pins which root phases the compiler proves
// inert, so that Program.Probe keeps skipping them on the common shapes:
// plain comparisons, CASE, COALESCE, arithmetic and grouped aggregates are
// inert; subqueries, failing builtins and misplaced aggregates are not.
func TestCompilerMarksInertPhases(t *testing.T) {
	db := datagen.TPCH(2, 0.02)
	for _, tc := range []struct {
		sql              string
		residual, output bool
	}{
		{"SELECT r_name FROM region WHERE r_regionkey > 1 ORDER BY r_name LIMIT 2", true, true},
		{"SELECT n_name, r_name FROM nation JOIN region ON n_regionkey = r_regionkey WHERE n_nationkey < r_regionkey * 3", true, true},
		{"SELECT n_regionkey, COUNT(*) AS c, SUM(n_nationkey) FROM nation GROUP BY n_regionkey HAVING COUNT(*) > 1 ORDER BY c", true, true},
		{"SELECT CASE WHEN n_nationkey > 3 THEN COALESCE(n_name, 'x') ELSE UPPER(n_name) END, -n_nationkey % 4 FROM nation", true, true},
		{"SELECT n_name FROM nation WHERE n_nationkey IN (SELECT r_regionkey FROM region)", false, true},
		{"SELECT n_name FROM nation JOIN region ON n_regionkey = r_regionkey WHERE n_nationkey + r_regionkey IN (SELECT c_custkey FROM customer)", false, true},
		{"SELECT n_name, (SELECT MAX(r_name) FROM region) FROM nation", true, false},
		{"SELECT ABS(n_nationkey) FROM nation", true, false},
		{"SELECT n_name FROM nation ORDER BY LENGTH(n_name, n_name)", true, false},
		{"SELECT COUNT(*) AS c FROM nation GROUP BY c", true, false},
		{"SELECT * FROM region GROUP BY r_regionkey", true, false},
	} {
		p := Compile(planSQL(t, db, tc.sql), nil).root
		if p.inertResidual != tc.residual || p.inertOutput != tc.output {
			t.Errorf("%s: inert residual %v output %v, want %v %v", tc.sql, p.inertResidual, p.inertOutput, tc.residual, tc.output)
		}
	}
}

func TestExecutorMatchesBruteForce(t *testing.T) {
	db := datagen.TPCH(2, 0.1)
	rng := rand.New(rand.NewSource(99))
	shapes := map[string]int{}
	for i := 0; i < 600; i++ {
		sql := genQuery(rng)
		for _, s := range []string{"GROUP BY", "COUNT(DISTINCT", "IN (SELECT", "(SELECT", "DISTINCT ", "LIKE", " JOIN "} {
			if strings.Contains(sql, s) {
				shapes[s]++
			}
		}
		checkDifferential(t, db, sql)
	}
	for _, s := range []string{"GROUP BY", "COUNT(DISTINCT", "IN (SELECT", "(SELECT", "DISTINCT ", "LIKE", " JOIN "} {
		if shapes[s] == 0 {
			t.Errorf("no generated query has %q", s)
		}
	}
}

var (
	fuzzDBOnce sync.Once
	fuzzDB     *storage.Database
)

// FuzzExecutorDifferential compares the compiled executor with the
// brute-force reference on the query genQuery draws from each seed.
func FuzzExecutorDifferential(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		fuzzDBOnce.Do(func() { fuzzDB = datagen.TPCH(2, 0.1) })
		checkDifferential(t, fuzzDB, genQuery(rand.New(rand.NewSource(seed))))
	})
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
	for _, r := range storedRows(orders) {
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
