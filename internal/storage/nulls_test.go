package storage_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/exec"
	"sqlbarber/internal/plan"
	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/sqltypes"
	"sqlbarber/internal/storage"
)

// TestNullsRoundTrip checks NULLs in every column type through Append,
// Save and Load, and a query over the loaded table. Rows 0..149 put a NULL
// in column i every 3rd row, f every 5th and s every 7th, so the bitmaps
// span three words and end at different rows.
func TestNullsRoundTrip(t *testing.T) {
	const n = 150
	schema := &catalog.Schema{Name: "nulls", Tables: []*catalog.Table{{Name: "t", Columns: []catalog.Column{
		{Name: "id", Type: catalog.TypeInt},
		{Name: "i", Type: catalog.TypeInt},
		{Name: "f", Type: catalog.TypeFloat},
		{Name: "s", Type: catalog.TypeString},
	}}}}
	want := make([]storage.Row, n)
	for r := range want {
		want[r] = storage.Row{sqltypes.NewInt(int64(r)), sqltypes.NewInt(int64(r % 4)), sqltypes.NewFloat(float64(r) / 2), sqltypes.NewString(fmt.Sprint("s", r%6))}
		for c, every := range []int{0, 3, 5, 7} {
			if every > 0 && r%every == 0 {
				want[r][c] = sqltypes.Null
			}
		}
	}
	db := storage.NewDatabase(schema)
	for _, r := range want {
		db.Table("t").Append(r)
	}
	db.Analyze()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := storage.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tbl := back.Table("t")
	if tbl.Len() != n {
		t.Fatalf("loaded %d rows, want %d", tbl.Len(), n)
	}
	for r := range want {
		if got := tbl.Row(r); fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want[r]) {
			t.Fatalf("row %d = %v, want %v", r, got, want[r])
		}
	}
	for c, frac := range []float64{0, 50.0 / n, 30.0 / n, 22.0 / n} {
		if got := back.Schema.Tables[0].Columns[c].Stats.NullFrac; got != frac {
			t.Errorf("column %d null fraction %v, want %v", c, got, frac)
		}
	}
	query := func(sql string) []storage.Row {
		t.Helper()
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		q, err := plan.Build(back.Schema, stmt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := exec.Run(back, q)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res.Rows
	}
	if got := query("SELECT COUNT(*), COUNT(i), COUNT(f), COUNT(s) FROM t")[0]; fmt.Sprint(got) != "[150 100 120 128]" {
		t.Errorf("counts = %v, want [150 100 120 128]", got)
	}
	var ids []string
	for _, r := range query("SELECT id FROM t WHERE i IS NULL AND f IS NULL AND s IS NULL") {
		ids = append(ids, r[0].String())
	}
	if got := strings.Join(ids, ","); got != "0,105" {
		t.Errorf("rows NULL in i, f and s: %s, want 0,105", got)
	}
	if got := query("SELECT COUNT(*) FROM t WHERE i = 1 OR f > 10 OR s = 's1'")[0][0].Int(); got != 116 {
		t.Errorf("rows matching a typed predicate on some column: %d, want 116", got)
	}
}
