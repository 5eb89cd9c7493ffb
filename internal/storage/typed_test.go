package storage

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/sqltypes"
)

// snapshotOf encodes a snapshot of one table in Save's format from raw
// rows, so a test can write values that no table would hold.
func snapshotOf(t *testing.T, meta *catalog.Table, rows []Row) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	js, err := json.Marshal(&catalog.Schema{Name: "s", Tables: []*catalog.Table{meta}})
	if err != nil {
		t.Fatal(err)
	}
	w.WriteString(snapshotMagic)
	writeUvarint(w, uint64(len(js)))
	w.Write(js)
	writeUvarint(w, uint64(len(rows)))
	for _, r := range rows {
		for _, v := range r {
			if err := writeValue(w, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAppendKindMismatchPanics checks the column vectors' precondition: a
// non-null value whose kind is not its column's is a programming error in
// Append, like an arity mismatch, and an error from Load. Both name the
// table and the column, and Append stores nothing of the rejected row.
func TestAppendKindMismatchPanics(t *testing.T) {
	for _, tc := range []struct {
		typ catalog.ColumnType
		v   sqltypes.Value
	}{
		{catalog.TypeFloat, sqltypes.NewInt(1)},
		{catalog.TypeInt, sqltypes.NewString("1")},
		{catalog.TypeString, sqltypes.NewFloat(1)},
		{catalog.TypeInt, sqltypes.NewBool(true)},
	} {
		meta := &catalog.Table{Name: "items", Columns: []catalog.Column{{Name: "id", Type: catalog.TypeInt}, {Name: "price", Type: tc.typ}}}
		db := NewDatabase(&catalog.Schema{Name: "k", Tables: []*catalog.Table{meta}})
		items := db.Table("items")
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "items") || !strings.Contains(msg, "price") {
					t.Errorf("%s value in %s column: panic %q must name table items and column price", tc.v.Kind(), tc.typ, msg)
				}
			}()
			items.Append(Row{sqltypes.NewInt(2), tc.v})
		}()
		if items.Len() != 0 || len(items.Cols[0].Ints) != 0 {
			t.Errorf("%s value in %s column: the rejected row left %d rows, %d ids", tc.v.Kind(), tc.typ, items.Len(), len(items.Cols[0].Ints))
		}
		_, err := Load(bytes.NewReader(snapshotOf(t, meta, []Row{{sqltypes.NewInt(2), tc.v}})))
		if err == nil || !strings.Contains(err.Error(), "items") || !strings.Contains(err.Error(), "price") {
			t.Errorf("%s value in %s column: Load error %v must name table items and column price", tc.v.Kind(), tc.typ, err)
		}
	}
}

// TestColumnVectors pins the layout: one typed vector per column, and a
// null bitmap that stays nil until the column holds a NULL.
func TestColumnVectors(t *testing.T) {
	db := buildDB(t)
	data := db.Table("data")
	id, grp, val := &data.Cols[0], &data.Cols[1], &data.Cols[2]
	if len(id.Ints) != 100 || id.Floats != nil || id.Strs != nil || id.Nulls != nil {
		t.Errorf("id: %d ints, floats %v, strs %v, nulls %v; want 100 ints only", len(id.Ints), id.Floats != nil, id.Strs != nil, id.Nulls)
	}
	if len(grp.Strs) != 100 || grp.Ints != nil || grp.Nulls != nil {
		t.Errorf("grp: %d strs, nulls %v; want 100 strs only", len(grp.Strs), grp.Nulls)
	}
	if len(val.Floats) != 100 || !val.Null(99) || val.Null(98) {
		t.Errorf("val: %d floats, row 99 null %v, row 98 null %v; want 100 with only row 99 null", len(val.Floats), val.Null(99), val.Null(98))
	}
	if data.Grow(3); data.Len() != 103 || len(val.Floats) != 103 || val.Null(102) || val.Floats[99] != 0 || id.Ints[98] != 99 {
		t.Errorf("Grow(3): %d rows, %d floats, row 102 null %v", data.Len(), len(val.Floats), val.Null(102))
	}
}
