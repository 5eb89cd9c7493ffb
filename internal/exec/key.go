package exec

import (
	"encoding/binary"
	"math"

	"sqlbarber/internal/sqltypes"
)

// This file holds the package's two rules for which values share a hash
// key. Both must agree with sqltypes.Value.Compare, which compares int with
// int exactly and every other pair of numbers as float64. Past 2^53 that is
// not transitive: int 2^53 and int 2^53+1 differ, yet both equal float 2^53.
// So one key cannot serve both uses:
//
//   - Grouping, DISTINCT and COUNT(DISTINCT) (numKey, appendKey, valueIndex)
//     must partition the values into classes, and no candidate is checked
//     against a key's members. Equal keys must mean equal values.
//   - Hash joins and IN-subquery sets (indexKey, exactKey, hashIndex) must
//     find every member that equals a probe value, and may check candidates.
//     Equal values must mean equal keys.
//
// TestKeysAgreeWithCompare checks both rules against Compare on one table of
// edge values.

// Grouping puts two values under one key when SQL equality says they are
// the same, within a kind class: NULL only with NULL (grouping, unlike =,
// puts the NULLs together), numbers only with numbers, strings only with
// strings, booleans only with booleans. A number keys by its canonical
// payload (numKey), so an int and a float that compare equal share a key, as
// do -0 and +0; the string 'NULL' is not NULL, and the string '2.5' is not
// the number 2.5.

// numKey is a number's canonical payload: an integral float within int64
// range keys as that integer (isInt), any other float by its bits, with all
// NaNs folded onto one. Numbers that share a key Compare as equal. The
// converse fails in two places: an int of magnitude 2^53 or more keeps its
// own key, so it groups with a float it equals only if that float converts
// back to it; and the NaNs, which Compare makes equal to every number, form
// one group of their own.
func numKey(v *sqltypes.Value) (bits uint64, isInt bool) {
	if v.Kind() == sqltypes.KindInt {
		return uint64(v.Int()), true
	}
	f := v.Float()
	if f == math.Trunc(f) && f >= -(1<<63) && f < 1<<63 {
		return uint64(int64(f)), true
	}
	if math.IsNaN(f) {
		return math.Float64bits(math.NaN()), false
	}
	return math.Float64bits(f), false
}

// indexKey is the join and IN-set key of number v: its float64 bits, with
// -0 folded onto +0, so the keys of Compare-equal numbers agree (int 3 and
// float 3.0 share float 3's bits). A NaN keeps its own bits; Compare makes it
// equal to every number, so callers that may meet NaN must not use the index.
func indexKey(v *sqltypes.Value) uint64 {
	if v.Kind() == sqltypes.KindInt {
		return intKey(v.Int())
	}
	return floatKey(v.Float())
}

// intKey and floatKey are indexKey of an int and of a float payload.
func intKey(i int64) uint64 { return math.Float64bits(float64(i)) }

func floatKey(f float64) uint64 {
	if f == 0 {
		f = 0
	}
	return math.Float64bits(f)
}

// exactKey reports whether every value with v's indexKey equals v, so a
// probe need not compare the candidates. That holds for every key but an int
// of magnitude 2^53 or more, whose float bits other such ints share (a float
// compares with an int through the same float, so it equals them all).
func exactKey(v *sqltypes.Value) bool {
	if v.Kind() != sqltypes.KindInt {
		return true
	}
	i := v.Int()
	return -1<<53 < i && i < 1<<53
}

// appendKey appends v's key in a self-delimiting byte form: a class byte,
// then the canonical payload (strings length-prefixed), so the keys of a
// row of values concatenate without ambiguity.
func appendKey(b []byte, v *sqltypes.Value) []byte {
	switch v.Kind() {
	case sqltypes.KindInt:
		return binary.LittleEndian.AppendUint64(append(b, 'I'), uint64(v.Int()))
	case sqltypes.KindNull:
		return append(b, 'N')
	case sqltypes.KindFloat:
		bits, isInt := numKey(v)
		class := byte('F')
		if isInt {
			class = 'I'
		}
		return binary.LittleEndian.AppendUint64(append(b, class), bits)
	case sqltypes.KindString:
		b = binary.AppendUvarint(append(b, 'S'), uint64(len(v.Str())))
		return append(b, v.Str()...)
	}
	return append(b, 'B', byte(v.Int()))
}

// valueIndex maps the key of a single value to a dense position, with a
// typed map per kind class, so a single GROUP BY column and a COUNT(DISTINCT)
// set key ints and strings without building a byte key. The zero
// valueIndex is empty and ready to use.
type valueIndex struct {
	null   int32    // position + 1 of NULL, 0 when unseen
	bools  [2]int32 // position + 1 of false and true
	ints   map[int64]int32
	floats map[uint64]int32
	strs   map[string]int32
}

// find returns the position of v's key, first giving it position next when
// unseen (added).
func (x *valueIndex) find(v *sqltypes.Value, next int32) (pos int32, added bool) {
	var slot *int32
	switch v.Kind() {
	case sqltypes.KindNull:
		slot = &x.null
	case sqltypes.KindBool:
		slot = &x.bools[v.Int()&1]
	case sqltypes.KindString:
		if p, ok := x.strs[v.Str()]; ok {
			return p, false
		}
		if x.strs == nil {
			x.strs = map[string]int32{}
		}
		x.strs[v.Str()] = next
		return next, true
	default:
		bits, isInt := numKey(v)
		if isInt {
			if p, ok := x.ints[int64(bits)]; ok {
				return p, false
			}
			if x.ints == nil {
				x.ints = map[int64]int32{}
			}
			x.ints[int64(bits)] = next
			return next, true
		}
		if p, ok := x.floats[bits]; ok {
			return p, false
		}
		if x.floats == nil {
			x.floats = map[uint64]int32{}
		}
		x.floats[bits] = next
		return next, true
	}
	if *slot != 0 {
		return *slot - 1, false
	}
	*slot = next + 1
	return next, true
}
