package sqltypes

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindInt: "INTEGER", KindFloat: "DOUBLE",
		KindString: "TEXT", KindBool: "BOOLEAN",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestNullBehaviour(t *testing.T) {
	if !Null.IsNull() {
		t.Fatal("Null must be null")
	}
	var zero Value
	if !zero.IsNull() {
		t.Fatal("zero Value must be NULL")
	}
	if Null.Equal(Null) {
		t.Error("NULL = NULL must be false (SQL semantics)")
	}
	if Null.Equal(NewInt(0)) || NewInt(0).Equal(Null) {
		t.Error("NULL never equals a value")
	}
	if got := Null.Compare(NewInt(-1 << 60)); got != -1 {
		t.Errorf("NULL must sort before everything, got %d", got)
	}
}

func TestCompareNumericCrossKind(t *testing.T) {
	if NewInt(3).Compare(NewFloat(3.0)) != 0 {
		t.Error("3 must equal 3.0 in ordering")
	}
	if NewInt(3).Compare(NewFloat(3.5)) != -1 {
		t.Error("3 < 3.5")
	}
	if NewFloat(4.1).Compare(NewInt(4)) != 1 {
		t.Error("4.1 > 4")
	}
	if !NewInt(3).Equal(NewFloat(3)) {
		t.Error("Equal must respect numeric promotion")
	}
}

func TestCompareStrings(t *testing.T) {
	if NewString("abc").Compare(NewString("abd")) != -1 {
		t.Error("abc < abd")
	}
	if NewString("b").Compare(NewString("b")) != 0 {
		t.Error("b == b")
	}
}

func TestCompareBools(t *testing.T) {
	if NewBool(false).Compare(NewBool(true)) != -1 {
		t.Error("false < true")
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("Bool() round trip broken")
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		got, want Value
	}{
		{NewInt(2).Add(NewInt(3)), NewInt(5)},
		{NewInt(2).Sub(NewInt(3)), NewInt(-1)},
		{NewInt(4).Mul(NewInt(3)), NewInt(12)},
		{NewInt(7).Div(NewInt(2)), NewInt(3)},
		{NewInt(7).Mod(NewInt(4)), NewInt(3)},
		{NewFloat(1.5).Add(NewInt(1)), NewFloat(2.5)},
		{NewInt(1).Add(NewFloat(0.5)), NewFloat(1.5)},
		{NewFloat(5).Div(NewFloat(2)), NewFloat(2.5)},
		{NewInt(3).Neg(), NewInt(-3)},
		{NewFloat(3.5).Neg(), NewFloat(-3.5)},
	}
	for i, c := range cases {
		if c.got.Compare(c.want) != 0 || c.got.Kind() != c.want.Kind() {
			t.Errorf("case %d: got %v (%v), want %v (%v)", i, c.got, c.got.Kind(), c.want, c.want.Kind())
		}
	}
}

func TestArithmeticNullPropagation(t *testing.T) {
	if !NewInt(1).Add(Null).IsNull() || !Null.Mul(NewInt(2)).IsNull() {
		t.Error("arithmetic with NULL must be NULL")
	}
	if !NewInt(1).Div(NewInt(0)).IsNull() {
		t.Error("division by zero must be NULL")
	}
	if !NewInt(1).Mod(NewInt(0)).IsNull() {
		t.Error("mod zero must be NULL")
	}
	if !NewString("x").Add(NewInt(1)).IsNull() {
		t.Error("string arithmetic must be NULL")
	}
	if !Null.Neg().IsNull() || !NewString("a").Neg().IsNull() {
		t.Error("Neg of non-numeric must be NULL")
	}
}

func TestSQLLiteral(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewInt(42), "42"},
		{NewFloat(1.5), "1.5"},
		{NewString("hello"), "'hello'"},
		{NewString("o'brien"), "'o''brien'"},
		{Null, "NULL"},
		{NewBool(true), "true"},
	}
	for _, c := range cases {
		if got := c.v.SQLLiteral(); got != c.want {
			t.Errorf("SQLLiteral(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := NewInt(a), NewInt(b)
		return x.Compare(y) == -y.Compare(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareTransitivityProperty(t *testing.T) {
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		vs := []Value{NewFloat(a), NewFloat(b), NewFloat(c)}
		// sort manually
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				if vs[i].Compare(vs[j]) > 0 {
					vs[i], vs[j] = vs[j], vs[i]
				}
			}
		}
		return vs[0].Compare(vs[1]) <= 0 && vs[1].Compare(vs[2]) <= 0 && vs[0].Compare(vs[2]) <= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddCommutativityProperty(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := NewInt(int64(a)), NewInt(int64(b))
		return x.Add(y).Compare(y.Add(x)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	if NewFloat(2.5).String() != "2.5" {
		t.Errorf("float rendering: %s", NewFloat(2.5))
	}
	if NewInt(-3).String() != "-3" {
		t.Errorf("int rendering: %s", NewInt(-3))
	}
	if NewBool(false).String() != "false" {
		t.Errorf("bool rendering: %s", NewBool(false))
	}
}
