package exec

import (
	"math"
	"slices"
	"testing"

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

	// The join index over every edge value, probed with each non-NULL,
	// non-NaN value, must return exactly the members equal to it.
	rows := make([]storage.Row, len(vs))
	for i := range vs {
		rows[i] = storage.Row{vs[i]}
	}
	var ar Arena
	hi := ar.buildIndex(rows, nil, 0)
	for _, a := range vs {
		if a.IsNull() || isNaN(a) {
			continue
		}
		var got, want []int
		for p := hi.first(&a); p != 0; p = hi.next[p-1] {
			if exactKey(&a) || a.Equal(vs[p-1]) {
				got = append(got, int(p-1))
			}
		}
		for j, b := range vs {
			if !b.IsNull() && !isNaN(b) && sameClass(a, b) && a.Compare(b) == 0 {
				want = append(want, j)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("join index probed with %v (%v) finds rows %v, want %v", a, a.Kind(), got, want)
		}
	}
}
