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

// edgeMember is one member value of group grp in edgeDB's members table.
type edgeMember struct {
	grp int64
	v   sqltypes.Value
}

// edgeMembers are four member groups: grp 1 mixes NULL with int, float,
// -0.0 and a hash-colliding large int, grp 2 holds a NaN, grp 3 is
// large-int and non-numeric members, grp 4 is every edge value. Group 5 has
// no members.
func edgeMembers() []edgeMember {
	var out []edgeMember
	add := func(grp int64, vs ...sqltypes.Value) {
		for _, v := range vs {
			out = append(out, edgeMember{grp, v})
		}
	}
	add(1, sqltypes.Null, sqltypes.NewInt(1), sqltypes.NewFloat(3), sqltypes.NewFloat(math.Copysign(0, -1)),
		sqltypes.NewInt(1<<53+1)) // hashes like int 1<<53, which it does not equal
	add(2, sqltypes.NewInt(7), sqltypes.NewFloat(math.NaN()))
	add(3, sqltypes.NewFloat(1<<53), sqltypes.NewString("x"), sqltypes.NewBool(true))
	add(4, edgeValues...)
	return out
}

// mixedColumns are the columns a value of any kind is split over: its kind
// code k ('n', 'i', 'f', 's' or 'b') and its payload in the column of its
// kind, a boolean as int 0 or 1. A stored column holds one kind only, so
// the executor meets values of every kind in one place through mixedSQL.
var mixedColumns = []catalog.Column{
	{Name: "k", Type: catalog.TypeString},
	{Name: "i", Type: catalog.TypeInt},
	{Name: "f", Type: catalog.TypeFloat},
	{Name: "s", Type: catalog.TypeString},
}

// splitValue returns the mixedColumns values of v.
func splitValue(v sqltypes.Value) []sqltypes.Value {
	out := []sqltypes.Value{sqltypes.NewString("n"), sqltypes.Null, sqltypes.Null, sqltypes.Null}
	switch v.Kind() {
	case sqltypes.KindInt:
		out[0], out[1] = sqltypes.NewString("i"), v
	case sqltypes.KindFloat:
		out[0], out[2] = sqltypes.NewString("f"), v
	case sqltypes.KindString:
		out[0], out[3] = sqltypes.NewString("s"), v
	case sqltypes.KindBool:
		out[0], out[1] = sqltypes.NewString("b"), sqltypes.NewInt(v.Int())
	}
	return out
}

// mixedSQL reassembles the value splitValue stored in the columns of table
// alias a.
func mixedSQL(a string) string {
	return fmt.Sprintf("CASE WHEN %[1]s.k = 'i' THEN %[1]s.i WHEN %[1]s.k = 'f' THEN %[1]s.f "+
		"WHEN %[1]s.k = 's' THEN %[1]s.s WHEN %[1]s.k = 'b' THEN %[1]s.i = 1 END", a)
}

// edgeDB holds probe(id, g, k, i, f, s) with one row per edge value, in
// group g = 1 + id%5, and members(grp, k, i, f, s) with the edgeMembers
// groups, each value split over mixedColumns. Execution reads no
// statistics, so the database is not analyzed.
func edgeDB(t testing.TB) *storage.Database {
	t.Helper()
	schema := &catalog.Schema{
		Name: "edge",
		Tables: []*catalog.Table{
			{Name: "probe", PrimaryKey: "id", Columns: append([]catalog.Column{
				{Name: "id", Type: catalog.TypeInt},
				{Name: "g", Type: catalog.TypeInt},
			}, mixedColumns...)},
			{Name: "members", Columns: append([]catalog.Column{
				{Name: "grp", Type: catalog.TypeInt},
			}, mixedColumns...)},
		},
	}
	db := storage.NewDatabase(schema)
	for i, v := range edgeValues {
		db.Table("probe").Append(append(storage.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(1 + i%5))}, splitValue(v)...))
	}
	for _, m := range edgeMembers() {
		db.Table("members").Append(append(storage.Row{sqltypes.NewInt(m.grp)}, splitValue(m.v)...))
	}
	return db
}

// TestInSubqueryMatchesLinearScan is the differential test for the IN-set
// path: every IN / NOT IN over an uncorrelated subquery (answered from a hash
// set unless a member or the probe value is NaN) and over a correlated one
// (always the linear scan) must give, row for row, the value of the linear
// x.Equal(r[0]) scan over the members the subquery selects.
func TestInSubqueryMatchesLinearScan(t *testing.T) {
	db := edgeDB(t)
	var probe []storage.Row // (id, g, x)
	for i, v := range edgeValues {
		probe = append(probe, storage.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(1 + i%5)), v})
	}
	members := edgeMembers()
	// want evaluates x [NOT] IN over the members of the groups keep accepts,
	// with the executor's semantics: NULL x gives NULL, otherwise the scan.
	want := func(x sqltypes.Value, not bool, keep func(grp int64) bool) sqltypes.Value {
		if x.IsNull() {
			return sqltypes.Null
		}
		found := false
		for _, m := range members {
			if keep(m.grp) && x.Equal(m.v) {
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
			px, mm := mixedSQL("p"), mixedSQL("m")
			sql := fmt.Sprintf("SELECT p.id, (%s) %s (SELECT %s FROM members AS m %s) FROM probe AS p ORDER BY p.id", px, op, mm, sq.where)
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
			filter := fmt.Sprintf("SELECT p.id FROM probe AS p WHERE (%s) %s (SELECT %s FROM members AS m %s) ORDER BY p.id", px, op, mm, sq.where)
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
// (nested-loop path) return the same rows when keys mix -0.0 and +0.0, and
// when a key is NaN; and so do the joins of the DOUBLE key with an INTEGER
// key holding int zeros and ints past 2^53, in both directions.
func TestHashJoinMatchesNestedLoopOnSignedZero(t *testing.T) {
	cols := []catalog.Column{{Name: "id", Type: catalog.TypeInt}, {Name: "k", Type: catalog.TypeFloat}, {Name: "ki", Type: catalog.TypeInt}}
	schema := &catalog.Schema{
		Name:   "zeros",
		Tables: []*catalog.Table{{Name: "l", Columns: cols}, {Name: "r", Columns: cols}},
	}
	db := storage.NewDatabase(schema)
	negZero := sqltypes.NewFloat(math.Copysign(0, -1))
	keys := []sqltypes.Value{negZero, sqltypes.NewFloat(0), sqltypes.NewFloat(0), sqltypes.NewFloat(1), sqltypes.NewFloat(2.5), sqltypes.Null, sqltypes.NewFloat(math.NaN())}
	ints := []sqltypes.Value{sqltypes.NewInt(0), sqltypes.NewInt(0), sqltypes.NewInt(1 << 53), sqltypes.NewInt(1), sqltypes.NewInt(1<<53 + 1), sqltypes.Null, sqltypes.NewInt(2)}
	for i, k := range keys {
		db.Table("l").Append(storage.Row{sqltypes.NewInt(int64(i)), k, ints[i]})
		db.Table("r").Append(storage.Row{sqltypes.NewInt(int64(i)), k, ints[i]})
	}
	for _, on := range [][2]string{{"l.k", "r.k"}, {"l.k", "r.ki"}, {"l.ki", "r.k"}, {"l.ki", "r.ki"}} {
		hash := runSQL(t, db, fmt.Sprintf("SELECT l.id, r.id FROM l JOIN r ON %s = %s ORDER BY l.id, r.id", on[0], on[1]))
		loop := runSQL(t, db, fmt.Sprintf("SELECT l.id, r.id FROM l JOIN r ON %[1]s >= %[2]s AND %[1]s <= %[2]s ORDER BY l.id, r.id", on[0], on[1]))
		if got, want := canonical(hash.Rows), canonical(loop.Rows); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s = %s: hash join rows differ from nested loop:\n hash: %v\n loop: %v", on[0], on[1], got, want)
		}
		// The three zeros pair with each other (9 rows), plus 1 = 1 and
		// 2.5 = 2.5. Compare makes NaN equal to every number: the NaN row
		// pairs with the six non-NULL rows on the other side, NaN included,
		// in both directions (6 + 5 rows).
		if on[1] == "r.k" && on[0] == "l.k" && len(hash.Rows) != 22 {
			t.Fatalf("hash join returned %d rows, want 22: %v", len(hash.Rows), canonical(hash.Rows))
		}
	}
}
