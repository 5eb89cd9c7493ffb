package plan

import (
	"strings"
	"testing"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/datagen"
	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/sqltypes"
)

func tpchSchema() *catalog.Schema { return datagen.TPCH(1, 0.05).Schema }

func compileSQL(t *testing.T, sql string) *CompiledQuery {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cq, err := Compile(tpchSchema(), stmt)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return cq
}

func TestCompilePlaceholdersSortedAndCopied(t *testing.T) {
	cq := compileSQL(t, "SELECT * FROM orders WHERE o_totalprice > {b_hi} AND o_orderkey < {a_lo}")
	names := cq.Placeholders()
	if len(names) != 2 || names[0] != "a_lo" || names[1] != "b_hi" {
		t.Fatalf("want sorted [a_lo b_hi], got %v", names)
	}
	names[0] = "mutated"
	if cq.Placeholders()[0] != "a_lo" {
		t.Fatal("Placeholders must return a copy")
	}
}

func TestCompileMissingParamsError(t *testing.T) {
	cq := compileSQL(t, "SELECT * FROM orders WHERE o_orderkey > {p_1} AND o_totalprice < {p_2}")
	_, err := cq.BindVals(map[string]sqltypes.Value{"p_2": sqltypes.NewFloat(1)})
	if err == nil {
		t.Fatal("want MissingParamsError")
	}
	mpe, ok := err.(*MissingParamsError)
	if !ok {
		t.Fatalf("want *MissingParamsError, got %T", err)
	}
	if len(mpe.Names) != 1 || mpe.Names[0] != "p_1" {
		t.Fatalf("want [p_1], got %v", mpe.Names)
	}
	if !strings.Contains(err.Error(), "p_1") {
		t.Fatalf("error must name the placeholder: %v", err)
	}
}

func TestCompileRepeatedPlaceholderSlots(t *testing.T) {
	cq := compileSQL(t, "SELECT * FROM orders WHERE o_orderkey > {p} AND o_custkey > {p}")
	params, err := cq.BindVals(map[string]sqltypes.Value{"p": sqltypes.NewInt(7)})
	if err != nil {
		t.Fatalf("BindVals: %v", err)
	}
	if len(params) != 1 {
		t.Fatalf("one distinct placeholder should bind one parameter, got %d", len(params))
	}
	// Both slots must resolve to the value through the bound view, while the
	// AST literals keep their neutral compile-time value.
	bp := cq.BindParams(params)
	n := 0
	for lit := range cq.slotIdx {
		if v, ok := bp.LiteralValue(lit); ok && v.Kind() == sqltypes.KindInt && v.Int() == 7 {
			n++
		}
		if lit.Value.Kind() != sqltypes.KindInt || lit.Value.Int() != 0 {
			t.Fatalf("binding wrote the AST literal: %v", lit.Value)
		}
	}
	if n != 2 {
		t.Fatalf("both slots must resolve to the bound value, resolved %d", n)
	}
}

func TestNormalizeValueMirrorsLexer(t *testing.T) {
	cases := []struct {
		in   sqltypes.Value
		want sqltypes.Kind
	}{
		{sqltypes.NewFloat(42), sqltypes.KindInt},     // "42" lexes as int
		{sqltypes.NewFloat(42.5), sqltypes.KindFloat}, // "42.5" stays float
		{sqltypes.NewInt(3), sqltypes.KindInt},
		{sqltypes.NewString("x"), sqltypes.KindString},
	}
	for i, c := range cases {
		if got := NormalizeValue(c.in).Kind(); got != c.want {
			t.Fatalf("case %d: kind %v, want %v", i, got, c.want)
		}
	}
	if NormalizeValue(sqltypes.NewFloat(42)).Int() != 42 {
		t.Fatal("integral float must normalize to the same integer")
	}
}

func TestCompileValidatesAtCompileTime(t *testing.T) {
	stmt, err := sqlparser.Parse("SELECT nope FROM orders WHERE o_orderkey > {p_1}")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := Compile(tpchSchema(), stmt); err == nil {
		t.Fatal("Compile must surface binding errors")
	}
}
