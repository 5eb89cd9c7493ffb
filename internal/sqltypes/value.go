// Package sqltypes defines the value model shared by the storage layer, the
// SQL executor, and the query planner: a compact dynamically-typed Value with
// total ordering, hashing, and SQL-style arithmetic and comparison semantics.
package sqltypes

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

// The supported SQL value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "TEXT"
	case KindBool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a dynamically typed SQL value. The zero Value is SQL NULL.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a floating-point value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, f: v} }

// NewString returns a text value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Kind reports the dynamic type of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload; valid only for KindInt and KindBool.
func (v Value) Int() int64 { return v.i }

// Float returns the float payload for KindFloat, or a widened integer for
// KindInt; 0 otherwise.
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt, KindBool:
		return float64(v.i)
	}
	return 0
}

// Str returns the string payload; valid only for KindString.
func (v Value) Str() string { return v.s }

// Bool reports the boolean payload; valid only for KindBool.
func (v Value) Bool() bool { return v.kind == KindBool && v.i != 0 }

// IsNumeric reports whether the value is an integer or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders the value as it would appear in SQL output.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	}
	return "?"
}

// SQLLiteral renders the value as a SQL literal suitable for embedding in a
// query text (strings are single-quoted with quote doubling).
func (v Value) SQLLiteral() string {
	if v.kind == KindString {
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	}
	return v.String()
}

// Compare returns -1, 0, or +1 comparing v with o. NULL sorts before
// everything; numerics compare by numeric value across int/float; strings
// compare lexicographically; booleans false < true. Cross-kind comparisons
// between non-numeric kinds order by kind, which gives a stable total order
// for sorting.
func (v Value) Compare(o Value) int {
	if v.kind == KindNull || o.kind == KindNull {
		switch {
		case v.kind == o.kind:
			return 0
		case v.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if v.IsNumeric() && o.IsNumeric() {
		if v.kind == KindInt && o.kind == KindInt {
			switch {
			case v.i < o.i:
				return -1
			case v.i > o.i:
				return 1
			}
			return 0
		}
		a, b := v.Float(), o.Float()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	if v.kind != o.kind {
		switch {
		case v.kind < o.kind:
			return -1
		default:
			return 1
		}
	}
	switch v.kind {
	case KindString:
		return strings.Compare(v.s, o.s)
	case KindBool:
		switch {
		case v.i < o.i:
			return -1
		case v.i > o.i:
			return 1
		}
	}
	return 0
}

// Equal reports SQL equality (NULL never equals anything, including NULL).
// Use Compare for ordering where NULL handling differs.
func (v Value) Equal(o Value) bool {
	if v.kind == KindNull || o.kind == KindNull {
		return false
	}
	return v.Compare(o) == 0
}

// Hash returns a hash of the value suitable for hash joins and grouping.
// Values that are Compare-equal hash identically (ints and equal floats
// included, and -0.0 with +0.0). NaN compares equal to every number, so no
// hash can agree with Compare for it; callers that may meet NaN must fall
// back to Compare. The hash is 64-bit FNV-1a over a kind-specific encoding.
func (v Value) Hash() uint64 {
	h := uint64(fnvOffset64)
	switch v.kind {
	case KindNull:
		h = fnvByte(h, 0)
	case KindInt:
		h = fnvUint64(h, math.Float64bits(float64(v.i)))
	case KindFloat:
		f := v.f
		if f == 0 {
			f = 0 // -0.0 == +0.0 under Compare, so both hash as +0.0
		}
		h = fnvUint64(h, math.Float64bits(f))
	case KindString:
		h = fnvByte(h, 3)
		for i := 0; i < len(v.s); i++ {
			h = fnvByte(h, v.s[i])
		}
	case KindBool:
		h = fnvByte(fnvByte(h, 4), byte(v.i))
	}
	return h
}

// FNV-1a 64-bit parameters (as in hash/fnv).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// fnvUint64 mixes u in little-endian byte order.
func fnvUint64(h, u uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(u>>(8*i)))
	}
	return h
}

// Add returns v + o with numeric promotion; NULL if either operand is NULL
// or non-numeric.
func (v Value) Add(o Value) Value { return arith(v, o, '+') }

// Sub returns v - o.
func (v Value) Sub(o Value) Value { return arith(v, o, '-') }

// Mul returns v * o.
func (v Value) Mul(o Value) Value { return arith(v, o, '*') }

// Div returns v / o; NULL on division by zero.
func (v Value) Div(o Value) Value { return arith(v, o, '/') }

// Mod returns v % o for integers; NULL otherwise or on zero divisor.
func (v Value) Mod(o Value) Value {
	if v.kind == KindInt && o.kind == KindInt && o.i != 0 {
		return NewInt(v.i % o.i)
	}
	return Null
}

func arith(v, o Value, op byte) Value {
	if !v.IsNumeric() || !o.IsNumeric() {
		return Null
	}
	if v.kind == KindInt && o.kind == KindInt && op != '/' {
		switch op {
		case '+':
			return NewInt(v.i + o.i)
		case '-':
			return NewInt(v.i - o.i)
		case '*':
			return NewInt(v.i * o.i)
		}
	}
	a, b := v.Float(), o.Float()
	switch op {
	case '+':
		return NewFloat(a + b)
	case '-':
		return NewFloat(a - b)
	case '*':
		return NewFloat(a * b)
	case '/':
		if b == 0 {
			return Null
		}
		if v.kind == KindInt && o.kind == KindInt {
			return NewInt(v.i / o.i)
		}
		return NewFloat(a / b)
	}
	return Null
}

// jsonValue is the wire form of a Value: a kind tag plus the payload.
type jsonValue struct {
	K Kind    `json:"k"`
	I int64   `json:"i,omitempty"`
	F float64 `json:"f,omitempty"`
	S string  `json:"s,omitempty"`
}

// MarshalJSON serializes the value with its kind tag so NULL, integers,
// floats, booleans, and strings round-trip exactly (used by catalog
// snapshots and workload manifests).
func (v Value) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonValue{K: v.kind, I: v.i, F: v.f, S: v.s})
}

// UnmarshalJSON restores a value serialized by MarshalJSON.
func (v *Value) UnmarshalJSON(data []byte) error {
	var jv jsonValue
	if err := json.Unmarshal(data, &jv); err != nil {
		return err
	}
	switch jv.K {
	case KindNull, KindInt, KindFloat, KindString, KindBool:
		*v = Value{kind: jv.K, i: jv.I, f: jv.F, s: jv.S}
		return nil
	}
	return fmt.Errorf("sqltypes: unknown kind %d", jv.K)
}

// Neg returns the arithmetic negation of a numeric value, NULL otherwise.
func (v Value) Neg() Value {
	switch v.kind {
	case KindInt:
		return NewInt(-v.i)
	case KindFloat:
		return NewFloat(-v.f)
	}
	return Null
}
