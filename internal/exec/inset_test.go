package exec

import (
	"fmt"
	"math"
	"testing"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/sqltypes"
	"sqlbarber/internal/storage"
)

// edgeValues are the values hashing and Compare disagree on most easily:
// NULL, int/float pairs that compare equal, -0.0 beside +0.0 and int 0, NaN
// (Compare-equal to every number), ints past float64 precision, and non-numeric
// kinds.
var edgeValues = []sqltypes.Value{
	sqltypes.Null,
	sqltypes.NewInt(0),
	sqltypes.NewInt(1),
	sqltypes.NewInt(3),
	sqltypes.NewInt(-2),
	sqltypes.NewFloat(3),
	sqltypes.NewFloat(0),
	sqltypes.NewFloat(math.Copysign(0, -1)),
	sqltypes.NewFloat(2.5),
	sqltypes.NewFloat(math.NaN()),
	sqltypes.NewInt(1<<53 + 1),
	sqltypes.NewInt(1 << 53),
	sqltypes.NewFloat(1 << 53),
	sqltypes.NewString("3"),
	sqltypes.NewBool(true),
}

// edgeDB holds probe(id, g, x) with one row per edge value and
// members(grp, m) with four member groups: grp 1 mixes NULL with int, float,
// -0.0 and a hash-colliding large int, grp 2 holds a NaN, grp 3 is large-int and non-numeric
// members, grp 4 is every edge value. Group 5 has no members. The DOUBLE
// columns x and m hold values of every kind on purpose, so the database is
// not analyzed (ANALYZE rejects off-kind values); execution reads no
// statistics.
func edgeDB(t testing.TB) *storage.Database {
	t.Helper()
	schema := &catalog.Schema{
		Name: "edge",
		Tables: []*catalog.Table{
			{Name: "probe", PrimaryKey: "id", Columns: []catalog.Column{
				{Name: "id", Type: catalog.TypeInt},
				{Name: "g", Type: catalog.TypeInt},
				{Name: "x", Type: catalog.TypeFloat},
			}},
			{Name: "members", Columns: []catalog.Column{
				{Name: "grp", Type: catalog.TypeInt},
				{Name: "m", Type: catalog.TypeFloat},
			}},
		},
	}
	db := storage.NewDatabase(schema)
	probe := db.Table("probe")
	for i, v := range edgeValues {
		probe.Append(storage.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(1 + i%5)), v})
	}
	members := db.Table("members")
	add := func(grp int64, vs ...sqltypes.Value) {
		for _, v := range vs {
			members.Append(storage.Row{sqltypes.NewInt(grp), v})
		}
	}
	add(1, sqltypes.Null, sqltypes.NewInt(1), sqltypes.NewFloat(3), sqltypes.NewFloat(math.Copysign(0, -1)),
		sqltypes.NewInt(1<<53+1)) // hashes like int 1<<53, which it does not equal
	add(2, sqltypes.NewInt(7), sqltypes.NewFloat(math.NaN()))
	add(3, sqltypes.NewFloat(1<<53), sqltypes.NewString("x"), sqltypes.NewBool(true))
	add(4, edgeValues...)
	return db
}

// TestInSubqueryMatchesLinearScan is the differential test for the IN-set
// path: every IN / NOT IN over an uncorrelated subquery (answered from a hash
// set unless a member or the probe value is NaN) and over a correlated one
// (always the linear scan) must give, row for row, the value of the linear
// x.Equal(r[0]) scan over the members the subquery selects.
func TestInSubqueryMatchesLinearScan(t *testing.T) {
	db := edgeDB(t)
	probe := db.Table("probe").Rows
	members := db.Table("members").Rows
	// want evaluates x [NOT] IN over the members of the groups keep accepts,
	// with the executor's semantics: NULL x gives NULL, otherwise the scan.
	want := func(x sqltypes.Value, not bool, keep func(grp int64) bool) sqltypes.Value {
		if x.IsNull() {
			return sqltypes.Null
		}
		found := false
		for _, r := range members {
			if keep(r[0].Int()) && x.Equal(r[1]) {
				found = true
				break
			}
		}
		return sqltypes.NewBool(found != not)
	}
	type subq struct {
		name  string
		where string // subquery WHERE clause, may reference p.g
		keep  func(probeG, grp int64) bool
	}
	subs := []subq{
		{"all members", "", func(_, _ int64) bool { return true }},
		{"NULL, int, float, -0.0", "WHERE m.grp = 1", func(_, grp int64) bool { return grp == 1 }},
		{"NaN member", "WHERE m.grp = 2", func(_, grp int64) bool { return grp == 2 }},
		{"large int, non-numeric", "WHERE m.grp = 3", func(_, grp int64) bool { return grp == 3 }},
		{"no NaN, no NULL", "WHERE m.grp <> 2 AND m.grp <> 4", func(_, grp int64) bool { return grp != 2 && grp != 4 }},
		{"empty", "WHERE m.grp = 5", func(_, grp int64) bool { return grp == 5 }},
		{"correlated", "WHERE m.grp = p.g", func(g, grp int64) bool { return grp == g }},
	}
	for _, sq := range subs {
		for _, not := range []bool{false, true} {
			op := "IN"
			if not {
				op = "NOT IN"
			}
			sql := fmt.Sprintf("SELECT p.id, p.x %s (SELECT m.m FROM members AS m %s) FROM probe AS p ORDER BY p.id", op, sq.where)
			res := runSQL(t, db, sql)
			if len(res.Rows) != len(probe) {
				t.Fatalf("%s %s: %d rows, want %d", sq.name, op, len(res.Rows), len(probe))
			}
			for i, pr := range probe {
				g := pr[1].Int()
				w := want(pr[2], not, func(grp int64) bool { return sq.keep(g, grp) })
				got := res.Rows[i][1]
				if got.Kind() != w.Kind() || got.Compare(w) != 0 {
					t.Errorf("%s: x=%s(%v) %s: got %v, linear scan gives %v", sq.name, pr[2].Kind(), pr[2], op, got, w)
				}
			}
			// The same predicate as a filter keeps exactly the rows whose
			// value is true.
			filter := fmt.Sprintf("SELECT p.id FROM probe AS p WHERE p.x %s (SELECT m.m FROM members AS m %s) ORDER BY p.id", op, sq.where)
			var wantIDs []int64
			for _, pr := range probe {
				g := pr[1].Int()
				if want(pr[2], not, func(grp int64) bool { return sq.keep(g, grp) }).Bool() {
					wantIDs = append(wantIDs, pr[0].Int())
				}
			}
			fr := runSQL(t, db, filter)
			if len(fr.Rows) != len(wantIDs) {
				t.Fatalf("%s %s filter: %d rows, want %d", sq.name, op, len(fr.Rows), len(wantIDs))
			}
			for i, id := range wantIDs {
				if fr.Rows[i][0].Int() != id {
					t.Fatalf("%s %s filter: row %d id %v, want %d", sq.name, op, i, fr.Rows[i][0], id)
				}
			}
		}
	}
}

// TestHashJoinMatchesNestedLoopOnSignedZero pins the -0.0 hash fix end to
// end: an equi-join (hash path) and the same join written as a non-equi ON
// (nested-loop path) return the same rows when keys mix -0.0, +0.0 and int 0,
// and when a key is NaN.
func TestHashJoinMatchesNestedLoopOnSignedZero(t *testing.T) {
	schema := &catalog.Schema{
		Name: "zeros",
		Tables: []*catalog.Table{
			{Name: "l", Columns: []catalog.Column{{Name: "id", Type: catalog.TypeInt}, {Name: "k", Type: catalog.TypeFloat}}},
			{Name: "r", Columns: []catalog.Column{{Name: "id", Type: catalog.TypeInt}, {Name: "k", Type: catalog.TypeFloat}}},
		},
	}
	db := storage.NewDatabase(schema)
	negZero := sqltypes.NewFloat(math.Copysign(0, -1))
	keys := []sqltypes.Value{negZero, sqltypes.NewFloat(0), sqltypes.NewInt(0), sqltypes.NewInt(1), sqltypes.NewFloat(2.5), sqltypes.Null, sqltypes.NewFloat(math.NaN())}
	for i, k := range keys {
		db.Table("l").Append(storage.Row{sqltypes.NewInt(int64(i)), k})
		db.Table("r").Append(storage.Row{sqltypes.NewInt(int64(i)), k})
	}
	// Not analyzed: the DOUBLE key columns hold int zeros on purpose, which
	// ANALYZE rejects, and execution reads no statistics.
	hash := runSQL(t, db, "SELECT l.id, r.id FROM l JOIN r ON l.k = r.k ORDER BY l.id, r.id")
	loop := runSQL(t, db, "SELECT l.id, r.id FROM l JOIN r ON l.k >= r.k AND l.k <= r.k ORDER BY l.id, r.id")
	if got, want := canonical(hash.Rows), canonical(loop.Rows); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("hash join rows differ from nested loop:\n hash: %v\n loop: %v", got, want)
	}
	// The three zeros pair with each other (9 rows), plus 1 = 1 and 2.5 = 2.5.
	// Compare makes NaN equal to every number: the NaN row pairs with the six
	// non-NULL rows on the other side, NaN included, in both directions
	// (6 + 5 rows).
	if len(hash.Rows) != 22 {
		t.Fatalf("hash join returned %d rows, want 22: %v", len(hash.Rows), canonical(hash.Rows))
	}
}
