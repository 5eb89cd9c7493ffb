package storage

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/sqltypes"
)

// null marks a NULL in the integer codes the table-driven cases are written
// in; every other code becomes a value of the column's type.
const null = math.MinInt

var negZero = math.Copysign(0, -1)

// codeValue maps a case code to a value of typ. Distinct codes give distinct
// values, and codes order like their values for the numeric types.
func codeValue(typ catalog.ColumnType, code int) sqltypes.Value {
	switch {
	case code == null:
		return sqltypes.Null
	case typ == catalog.TypeInt:
		return sqltypes.NewInt(int64(code))
	case typ == catalog.TypeFloat:
		return sqltypes.NewFloat(float64(code) / 4)
	}
	return sqltypes.NewString(fmt.Sprintf("v%d", code))
}

// statsBits renders every field of st exactly: float sign and NaN payload
// bits, value kinds, and nil versus empty slices, which reflect.DeepEqual
// and JSON would either miss or reject.
func statsBits(st catalog.ColumnStats) string {
	var b strings.Builder
	val := func(v sqltypes.Value) {
		fmt.Fprintf(&b, "%s/%d/%x/%q ", v.Kind(), v.Int(), math.Float64bits(v.Float()), v.Str())
	}
	val(st.Min)
	val(st.Max)
	fmt.Fprintf(&b, "nd=%d nf=%x mcv(nil=%t)=", st.NDistinct, math.Float64bits(st.NullFrac), st.MostCommon == nil)
	for _, e := range st.MostCommon {
		val(e.Value)
		fmt.Fprintf(&b, "%x ", math.Float64bits(e.Freq))
	}
	b.WriteString(nanFreeBits(st))
	return b.String()
}

// nanFreeBits renders the fields whose old values do not depend on map
// order when the column holds NaN: NDistinct, NullFrac and the histogram.
func nanFreeBits(st catalog.ColumnStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "nd=%d nf=%x hist(nil=%t)=", st.NDistinct, math.Float64bits(st.NullFrac), st.Histogram == nil)
	for _, h := range st.Histogram {
		fmt.Fprintf(&b, "%x ", math.Float64bits(h))
	}
	return b.String()
}

func hasNaN(rows []Row, idx int) bool {
	for _, r := range rows {
		if v := r[idx]; v.Kind() == sqltypes.KindFloat && math.IsNaN(v.Float()) {
			return true
		}
	}
	return false
}

// checkAgainstReference compares the statistics Analyze stored for column
// idx of tbl with the reference's. Columns holding NaN are compared on
// nanFreeBits only: the reference's MCV list is random for them.
func checkAgainstReference(t *testing.T, name string, tbl *Table, idx int) {
	t.Helper()
	col := tbl.Meta.Columns[idx]
	rows := tableRows(tbl)
	want := analyzeColumn(rows, idx, col.Type)
	got := col.Stats
	if hasNaN(rows, idx) {
		if g, w := nanFreeBits(got), nanFreeBits(want); g != w {
			t.Errorf("%s (%s, NaN): got %s\nwant %s", name, col.Type, g, w)
		}
		return
	}
	if !reflect.DeepEqual(got, want) || statsBits(got) != statsBits(want) {
		t.Errorf("%s (%s): got %s\nwant %s", name, col.Type, statsBits(got), statsBits(want))
	}
}

// repeat returns code n times.
func repeat(code, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = code
	}
	return out
}

// seq returns n distinct codes starting at from.
func seq(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}

func reverse(s []int) []int {
	slices.Reverse(s)
	return s
}

func concat(parts ...[]int) []int {
	var out []int
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// interleave deals the runs out round-robin, so equal values are spread
// over the column instead of adjacent.
func interleave(runs ...[]int) []int {
	var out []int
	for i := 0; ; i++ {
		added := false
		for _, r := range runs {
			if i < len(r) {
				out = append(out, r[i])
				added = true
			}
		}
		if !added {
			return out
		}
	}
}

// TestAnalyzeMatchesReference is the differential test for ANALYZE: every
// case becomes an int, a float and a string column of one table, all cases
// are analyzed by one Analyze call (so the sort buffers are reused across
// columns and tables of different lengths), and each column's statistics
// must equal the map-counting reference's, sign bits included.
func TestAnalyzeMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		codes []int
	}{
		{"empty table", nil},
		{"all null", repeat(null, 7)},
		{"one value", []int{3}},
		{"nulls mixed in", []int{1, null, 2, 2, null, 3, 3, 3}},
		{"descending rows", reverse(seq(-20, 40))},
		{"tie at 5th MCV", interleave(repeat(7, 10), repeat(6, 10), repeat(5, 10), repeat(4, 10), repeat(3, 10), repeat(2, 10), repeat(1, 10))},
		{"tie across the 5th slot", interleave(repeat(9, 20), repeat(8, 15), repeat(4, 10), repeat(3, 10), repeat(-2, 10), repeat(6, 10), repeat(5, 10))},
		{"MCV cut: 4 of 301 over, 3 under", concat(repeat(5, 4), repeat(-5, 3), seq(100, 294))},
		{"MCV cut: 3 of 300 exactly 1%", concat(seq(100, 297), repeat(5, 3))},
		{"MCV cut: 1 of 101 under", seq(-50, 101)},
		{"MCV cut: 1 of 100 exactly 1%", seq(-50, 100)},
		{"31 non-null", concat(seq(0, 31), repeat(null, 3))},
		{"32 non-null", concat(repeat(null, 3), seq(0, 32))},
		{"33 non-null", interleave(seq(0, 33), repeat(null, 5))},
		{"histogram over duplicates", interleave(repeat(1, 40), seq(-30, 30), repeat(2, 25))},
		{"skewed", interleave(repeat(0, 300), repeat(1, 150), repeat(2, 75), seq(3, 500))},
	}
	schema := &catalog.Schema{Name: "ref"}
	for i := range cases {
		schema.Tables = append(schema.Tables, &catalog.Table{
			Name: fmt.Sprintf("case%d", i),
			Columns: []catalog.Column{
				{Name: "i", Type: catalog.TypeInt},
				{Name: "f", Type: catalog.TypeFloat},
				{Name: "s", Type: catalog.TypeString},
			},
		})
	}
	db := NewDatabase(schema)
	for i, tc := range cases {
		tbl := db.Table(fmt.Sprintf("case%d", i))
		for _, c := range tc.codes {
			tbl.Append(Row{codeValue(catalog.TypeInt, c), codeValue(catalog.TypeFloat, c), codeValue(catalog.TypeString, c)})
		}
	}
	db.Analyze()
	for i, tc := range cases {
		tbl := db.Table(fmt.Sprintf("case%d", i))
		for idx := range tbl.Meta.Columns {
			checkAgainstReference(t, tc.name, tbl, idx)
		}
	}
}

// oneColumn returns a one-column table of type typ holding vals, analyzed.
func oneColumn(typ catalog.ColumnType, vals []sqltypes.Value) *Table {
	db := NewDatabase(&catalog.Schema{Name: "one", Tables: []*catalog.Table{{
		Name: "t", Columns: []catalog.Column{{Name: "c", Type: typ}},
	}}})
	tbl := db.Table("t")
	for _, v := range vals {
		tbl.Append(Row{v})
	}
	db.Analyze()
	return tbl
}

func floats(fs ...float64) []sqltypes.Value {
	out := make([]sqltypes.Value, len(fs))
	for i, f := range fs {
		out[i] = sqltypes.NewFloat(f)
	}
	return out
}

// zeroRows returns n rows alternating the two zeros, first one first,
// dealt between the given other values.
func zeroRows(first float64, n int, others ...float64) []float64 {
	second := math.Copysign(0, -math.Copysign(1, first))
	var out []float64
	for i := 0; i < n || len(others) > 0; i++ {
		if i < n {
			out = append(out, [2]float64{first, second}[i%2])
		}
		if len(others) > 0 {
			out = append(out, others[0])
			others = others[1:]
		}
	}
	return out
}

// TestAnalyzeMatchesReferenceFloatEdges covers what only a float column can
// hold: -0.0 and +0.0 (one distinct value; Min and Max keep the first row's
// sign, the MCV value the last row's, the histogram the sort's), in both row
// orders, as Min, Max or neither, below and above the histogram threshold;
// infinities; and NaN, compared on nanFreeBits.
func TestAnalyzeMatchesReferenceFloatEdges(t *testing.T) {
	pos := []float64{1, 2, 3, 2.5, 7, 1e300, 0.5}
	neg := []float64{-1, -2, -3, -2.5, -7, -1e300, -0.5}
	cases := map[string][]float64{}
	for _, first := range []float64{0, negZero} {
		sign := "+0 first"
		if math.Signbit(first) {
			sign = "-0 first"
		}
		cases[sign+", zero is Min"] = zeroRows(first, 6, pos...)
		cases[sign+", zero is Max"] = zeroRows(first, 6, neg...)
		cases[sign+", zero in the middle"] = zeroRows(first, 6, append(slices.Clone(pos), neg...)...)
		cases[sign+", zeros only"] = zeroRows(first, 5)
		cases[sign+", one zero"] = zeroRows(first, 1, pos...)
		cases[sign+", histogram"] = zeroRows(first, 21, append(append(slices.Clone(pos), neg...), pos...)...)
		cases[sign+", histogram of zeros"] = zeroRows(first, 40)
	}
	cases["infinities"] = []float64{math.Inf(1), 1, math.Inf(-1), math.Inf(1), 0}
	cases["NaN"] = []float64{math.NaN(), 1, 2, math.NaN(), 3}
	cases["all NaN"] = []float64{math.NaN(), math.NaN()}
	cases["NaN histogram"] = append(zeroRows(0, 20, append(slices.Clone(pos), neg...)...), math.NaN(), math.NaN())
	for name, fs := range cases {
		checkAgainstReference(t, name, oneColumn(catalog.TypeFloat, floats(fs...)), 0)
	}
}

// TestAnalyzeMatchesReferenceWideInts covers integers past 2^53, where
// distinct ints widen to the same float64: the histogram is read from the
// sorted ints, and widening is monotone, so it equals the reference's sort
// of the widened values.
func TestAnalyzeMatchesReferenceWideInts(t *testing.T) {
	var vals []sqltypes.Value
	for i := 0; i < 40; i++ {
		vals = append(vals, sqltypes.NewInt(1<<53+int64(i%7)), sqltypes.NewInt(math.MinInt64+int64(i%3)))
	}
	vals = append(vals, sqltypes.NewInt(math.MaxInt64), sqltypes.NewInt(0))
	checkAgainstReference(t, "wide ints", oneColumn(catalog.TypeInt, vals), 0)
}

// fuzzValue maps one fuzz byte to a value of typ from a small palette, so
// arbitrary inputs are full of ties, nulls and edge values.
func fuzzValue(typ catalog.ColumnType, b byte) sqltypes.Value {
	code := int(b&15) - 7
	if code == 8 {
		return sqltypes.Null
	}
	switch typ {
	case catalog.TypeInt:
		if b >= 0xe0 {
			return sqltypes.NewInt(1<<53 + int64(code))
		}
		return sqltypes.NewInt(int64(code))
	case catalog.TypeFloat:
		switch {
		case code == 0 && b&0x80 != 0:
			return sqltypes.NewFloat(negZero)
		case b >= 0xf0 && code < 0:
			return sqltypes.NewFloat(math.NaN())
		case b >= 0xf0:
			return sqltypes.NewFloat(math.Inf(code))
		}
		return sqltypes.NewFloat(float64(code) / 2)
	}
	return sqltypes.NewString(strings.Repeat("ab", int(b>>6)) + fmt.Sprint(code))
}

// FuzzAnalyzeDifferential checks ANALYZE against the map-counting reference
// on arbitrary columns: typ picks the column type and each byte of data one
// value.
func FuzzAnalyzeDifferential(f *testing.F) {
	for typ := uint8(0); typ < 3; typ++ {
		f.Add(typ, []byte{})
		f.Add(typ, []byte{15, 15, 15})
		f.Add(typ, []byte{7, 0x87, 7, 8, 0x87, 0xf1, 0xf9})
		for _, n := range []int{31, 32, 33, 101, 301} {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(i * 37 % 251)
			}
			f.Add(typ, data)
		}
	}
	f.Fuzz(func(t *testing.T, typ uint8, data []byte) {
		ct := catalog.ColumnType(typ % 3)
		vals := make([]sqltypes.Value, len(data))
		for i, b := range data {
			vals[i] = fuzzValue(ct, b)
		}
		checkAgainstReference(t, "fuzz", oneColumn(ct, vals), 0)
	})
}

// TestAnalyzeNaNDeterministic pins ANALYZE on NaN: each NaN is its own
// distinct value, NaNs sort before every number, and MCV ties break by
// value, so the statistics are the same on every run.
func TestAnalyzeNaNDeterministic(t *testing.T) {
	vals := floats(math.NaN(), 1, 2, math.NaN(), 3)
	seen := map[string]int{}
	var st catalog.ColumnStats
	for i := 0; i < 50; i++ {
		st = oneColumn(catalog.TypeFloat, vals).Meta.Columns[0].Stats
		seen[statsBits(st)]++
	}
	if len(seen) != 1 {
		t.Fatalf("50 runs gave %d different statistics: %v", len(seen), seen)
	}
	if st.NDistinct != 5 || len(st.MostCommon) != 5 {
		t.Fatalf("NDistinct %d, %d MCVs; want 5 and 5", st.NDistinct, len(st.MostCommon))
	}
	for i, want := range []float64{math.NaN(), math.NaN(), 1, 2, 3} {
		got := st.MostCommon[i]
		if math.Float64bits(got.Value.Float()) != math.Float64bits(want) || got.Freq != 0.2 {
			t.Errorf("MCV %d = %v freq %v, want %v freq 0.2", i, got.Value, got.Freq, want)
		}
	}
	if st.Min.Float() != 1 || st.Max.Float() != 3 {
		t.Errorf("Min %v, Max %v; want 1 and 3 (NaN skipped)", st.Min, st.Max)
	}
}

// tableRows returns every row of tbl.
func tableRows(tbl *Table) []Row {
	out := make([]Row, tbl.Len())
	for i := range out {
		out[i] = tbl.Row(i)
	}
	return out
}
