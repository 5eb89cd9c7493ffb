package exec

import (
	"math"
	"slices"
	"testing"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/sqltypes"
	"sqlbarber/internal/storage"
)

// keyEdgeValues are the values on which a hash key is most likely to
// disagree with Compare: signed zeros, NaN, infinities, ints around 2^53
// and at the int64 limits with the floats they round to, and strings that
// print like NULL or a number. The two NaNs differ in their bits.
func keyEdgeValues() []sqltypes.Value {
	vs := []sqltypes.Value{sqltypes.Null, sqltypes.NewBool(false), sqltypes.NewBool(true)}
	for _, i := range []int64{0, 1, -1, 3, 1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<53 + 2, -(1 << 53), -(1<<53 + 1), math.MaxInt64, math.MinInt64} {
		vs = append(vs, sqltypes.NewInt(i))
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, 3, 2.5, -2.5, 1 << 53, 1<<53 + 2, 1 << 63, -(1 << 63), math.NaN(), math.Float64frombits(0xfff8000000000001), math.Inf(1), math.Inf(-1), 1e300} {
		vs = append(vs, sqltypes.NewFloat(f))
	}
	for _, s := range []string{"", "NULL", "2.5", "3", "a"} {
		vs = append(vs, sqltypes.NewString(s))
	}
	return vs
}

func isBigInt(v sqltypes.Value) bool {
	return v.Kind() == sqltypes.KindInt && (v.Int() >= 1<<53 || v.Int() <= -(1<<53))
}

// sameClass reports whether a and b may share a key at all: both NULL, both
// numbers, both strings or both booleans.
func sameClass(a, b sqltypes.Value) bool {
	return a.Kind() == b.Kind() || (a.IsNumeric() && b.IsNumeric())
}

// TestKeysAgreeWithCompare checks both keyings of key.go against
// Value.Compare on every pair of edge values: the grouping key
// (appendKey, and valueIndex, which must agree with it) puts two values
// together only if they are equal and, NaN and big ints aside, always when
// they are; the join key (indexKey through hashIndex, candidates verified
// unless exactKey) finds exactly the equal members.
func TestKeysAgreeWithCompare(t *testing.T) {
	vs := keyEdgeValues()
	var vi valueIndex
	pos := make([]int32, len(vs))
	next := int32(0)
	for i := range vs {
		p, added := vi.find(&vs[i], next)
		if added {
			next++
		}
		pos[i] = p
	}
	for i, a := range vs {
		for j, b := range vs {
			ka, kb := string(appendKey(nil, &a)), string(appendKey(nil, &b))
			if (ka == kb) != (pos[i] == pos[j]) {
				t.Errorf("%v, %v: appendKey says same=%v, valueIndex says %v", a, b, ka == kb, pos[i] == pos[j])
			}
			equal := sameClass(a, b) && a.Compare(b) == 0
			if ka == kb && !equal {
				t.Errorf("%v (%v) and %v (%v) share a grouping key but are not equal", a, a.Kind(), b, b.Kind())
			}
			if equal && ka != kb && !isNaN(a) && !isNaN(b) && !isBigInt(a) && !isBigInt(b) {
				t.Errorf("%v (%v) and %v (%v) are equal but group apart", a, a.Kind(), b, b.Kind())
			}
			if isNaN(a) && isNaN(b) && ka != kb {
				t.Errorf("two NaNs group apart")
			}
		}
	}

	// The IN-set index over every edge value, and the join index over the
	// edge values of each stored column kind, probed with each non-NULL,
	// non-NaN value, must return exactly the members equal to it.
	rows := make([]storage.Row, len(vs))
	for i := range vs {
		rows[i] = storage.Row{vs[i]}
	}
	var ar Arena
	checkIndex(t, "IN-set index", ar.buildRowIndex(rows), vs)
	for _, kind := range []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindString} {
		typ := map[sqltypes.Kind]catalog.ColumnType{sqltypes.KindInt: catalog.TypeInt, sqltypes.KindFloat: catalog.TypeFloat}[kind]
		if kind == sqltypes.KindString {
			typ = catalog.TypeString
		}
		db := storage.NewDatabase(&catalog.Schema{Tables: []*catalog.Table{{Name: "t", Columns: []catalog.Column{{Name: "c", Type: typ}}}}})
		var col []sqltypes.Value
		var sel []int32
		for _, v := range vs {
			if v.Kind() == kind || v.IsNull() {
				db.Table("t").Append(storage.Row{v})
				col = append(col, v)
				sel = append(sel, int32(len(sel)))
			}
		}
		checkIndex(t, kind.String()+" join index", ar.buildIndex(&db.Table("t").Cols[0], sel), col)
	}
}

// checkIndex probes hi, an index over members, with every non-NULL, non-NaN
// edge value.
func checkIndex(t *testing.T, name string, hi *hashIndex, members []sqltypes.Value) {
	t.Helper()
	for _, a := range keyEdgeValues() {
		if a.IsNull() || isNaN(a) {
			continue
		}
		var got, want []int
		for p := hi.first(&a); p != 0; p = hi.next[p-1] {
			if exactKey(&a) || a.Equal(members[p-1]) {
				got = append(got, int(p-1))
			}
		}
		for j, b := range members {
			if !b.IsNull() && !isNaN(b) && sameClass(a, b) && a.Compare(b) == 0 {
				want = append(want, j)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s probed with %v (%v) finds rows %v, want %v", name, a, a.Kind(), got, want)
		}
	}
}
