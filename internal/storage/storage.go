// Package storage implements the in-memory column store backing the
// embedded SQL engine, including the ANALYZE pass that populates optimizer
// statistics in the catalog.
package storage

import (
	"cmp"
	"fmt"
	"slices"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/sqltypes"
)

// Row is one tuple; columns are positional per the table schema. Tables
// store columns, not rows: a Row is what Append takes and Table.Row returns.
type Row []sqltypes.Value

// Column is one column of a table as a typed vector, chosen by the column's
// catalog.ColumnType.Kind: Ints for INTEGER, Floats for DOUBLE, Strs for
// TEXT; the other two stay nil. A NULL row holds the zero payload and sets
// its bit in Nulls (bit i%64 of word i/64), which stays nil until the column
// holds a NULL and covers only the rows up to its last NULL.
type Column struct {
	Kind   sqltypes.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Nulls  []uint64
}

// Null reports whether row i is NULL.
func (c *Column) Null(i int) bool {
	w := i >> 6
	return w < len(c.Nulls) && c.Nulls[w]>>(i&63)&1 != 0
}

// Value returns row i as a Value.
func (c *Column) Value(i int) sqltypes.Value {
	if c.Null(i) {
		return sqltypes.Null
	}
	switch c.Kind {
	case sqltypes.KindInt:
		return sqltypes.NewInt(c.Ints[i])
	case sqltypes.KindFloat:
		return sqltypes.NewFloat(c.Floats[i])
	}
	return sqltypes.NewString(c.Strs[i])
}

// setNull marks row i NULL.
func (c *Column) setNull(i int) {
	for len(c.Nulls) <= i>>6 {
		c.Nulls = append(c.Nulls, 0)
	}
	c.Nulls[i>>6] |= 1 << (i & 63)
}

// Table couples a catalog schema entry with its columns, one per
// Meta.Columns entry and all of the same length.
type Table struct {
	Meta *catalog.Table
	Cols []Column
	n    int
}

func newTable(meta *catalog.Table) *Table {
	t := &Table{Meta: meta, Cols: make([]Column, len(meta.Columns))}
	for j, c := range meta.Columns {
		t.Cols[j].Kind = c.Type.Kind()
	}
	return t
}

// Len returns the number of rows.
func (t *Table) Len() int { return t.n }

// Row returns a copy of row i.
func (t *Table) Row(i int) Row {
	r := make(Row, len(t.Cols))
	for j := range t.Cols {
		r[j] = t.Cols[j].Value(i)
	}
	return r
}

// Append adds a row, panicking on an arity mismatch or on a non-null value
// whose kind is not its column's (programming errors); Load reports the
// same faults as errors.
func (t *Table) Append(r Row) {
	if err := t.appendRow(r); err != nil {
		panic(err.Error())
	}
}

// appendRow checks the whole row before storing any of it, so a rejected
// row leaves the table as it was.
func (t *Table) appendRow(r Row) error {
	if len(r) != len(t.Cols) {
		return fmt.Errorf("storage: row arity %d != %d columns of %s", len(r), len(t.Cols), t.Meta.Name)
	}
	for j, v := range r {
		if k := v.Kind(); k != t.Cols[j].Kind && k != sqltypes.KindNull {
			col := &t.Meta.Columns[j]
			return fmt.Errorf("storage: column %s.%s (%s) cannot hold a value of kind %s", t.Meta.Name, col.Name, col.Type, k)
		}
	}
	for j, v := range r {
		c := &t.Cols[j]
		switch c.Kind {
		case sqltypes.KindInt:
			c.Ints = append(c.Ints, v.Int())
		case sqltypes.KindFloat:
			c.Floats = append(c.Floats, v.Float())
		default:
			c.Strs = append(c.Strs, v.Str())
		}
		if v.IsNull() {
			c.setNull(t.n)
		}
	}
	t.n++
	return nil
}

// Grow appends n non-null rows of zero payloads, reallocating each vector
// once. Bulk loaders then write the payloads straight into the vectors.
func (t *Table) Grow(n int) {
	for j := range t.Cols {
		c := &t.Cols[j]
		switch c.Kind {
		case sqltypes.KindInt:
			c.Ints = extend(c.Ints, n)
		case sqltypes.KindFloat:
			c.Floats = extend(c.Floats, n)
		default:
			c.Strs = extend(c.Strs, n)
		}
	}
	t.n += n
}

// extend returns a copy of s followed by n zero values, in one allocation.
func extend[T any](s []T, n int) []T {
	out := make([]T, len(s)+n)
	copy(out, s)
	return out
}

// Database is a named collection of tables plus the catalog schema.
type Database struct {
	Schema *catalog.Schema
	tables map[string]*Table
}

// NewDatabase creates an empty database around a schema, allocating a table
// container per schema table.
func NewDatabase(schema *catalog.Schema) *Database {
	db := &Database{Schema: schema, tables: map[string]*Table{}}
	for _, t := range schema.Tables {
		db.tables[lower(t.Name)] = newTable(t)
	}
	return db
}

// Table returns the named table, or nil. Case-insensitive.
func (db *Database) Table(name string) *Table { return db.tables[lower(name)] }

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// maxMCV is how many most-common values ANALYZE records per column.
const maxMCV = 5

// histogramBuckets is the number of equi-depth histogram buckets.
const histogramBuckets = 32

// Analyze recomputes row counts, sizes, and per-column statistics for every
// table, mirroring PostgreSQL's ANALYZE. It must be called after bulk loads
// so the planner sees fresh statistics.
func (db *Database) Analyze() {
	var sc sortScratch
	for _, t := range db.tables {
		analyzeTable(t, &sc)
	}
}

// sortScratch holds the typed sort buffers that ANALYZE reuses across
// columns and tables.
type sortScratch struct {
	ints   []int64
	floats []float64
	strs   []string
}

func analyzeTable(t *Table, sc *sortScratch) {
	meta := t.Meta
	meta.RowCount = t.n
	var width int64
	for i := range meta.Columns {
		col := &meta.Columns[i]
		col.Stats = columnStats(&t.Cols[i], t.n, sc)
		switch col.Type {
		case catalog.TypeString:
			width += 24
		default:
			width += 8
		}
	}
	meta.SizeBytes = width * int64(t.n)
}

// columnStats computes the statistics of a column of n rows from a single
// sort of a copy of its non-null payloads.
func columnStats(c *Column, n int, sc *sortScratch) catalog.ColumnStats {
	if n == 0 {
		return catalog.ColumnStats{}
	}
	var nulls int
	switch c.Kind {
	case sqltypes.KindInt:
		sc.ints, nulls = nonNull(sc.ints, c.Ints, c)
		return sortedStats(sc.ints, nulls, n, sqltypes.NewInt, func(v int64) float64 { return float64(v) })
	case sqltypes.KindFloat:
		sc.floats, nulls = nonNull(sc.floats, c.Floats, c)
		st := sortedStats(sc.floats, nulls, n, sqltypes.NewFloat, func(v float64) float64 { return v })
		zeroSigns(&st, c)
		return st
	default:
		sc.strs, nulls = nonNull(sc.strs, c.Strs, c)
		return sortedStats(sc.strs, nulls, n, sqltypes.NewString, nil)
	}
}

// nonNull refills buf with the payloads of c's non-null rows, in row order,
// from c's vector vec, and counts the nulls.
func nonNull[T any](buf, vec []T, c *Column) ([]T, int) {
	if c.Nulls == nil {
		return append(buf[:0], vec...), 0
	}
	buf = slices.Grow(buf[:0], len(vec))
	for i, v := range vec {
		if !c.Null(i) {
			buf = append(buf, v)
		}
	}
	return buf, len(vec) - len(buf)
}

// sortedStats sorts vals in place and reads every statistic off the sorted
// runs: one run per distinct value, NaNs first and each its own run. Min and
// Max skip NaNs unless every value is one. The MCV list keeps the maxMCV
// largest runs, count descending and smaller value first on ties. hist
// widens a value for the histogram; nil means the column has none.
func sortedStats[T cmp.Ordered](vals []T, nulls, total int, value func(T) sqltypes.Value, hist func(T) float64) catalog.ColumnStats {
	slices.Sort(vals)
	st := catalog.ColumnStats{NullFrac: float64(nulls) / float64(total)}
	type run struct {
		v T
		n int
	}
	var top [maxMCV]run
	ntop := 0
	lo := 0 // first non-NaN (x != x only for NaN)
	for lo < len(vals) && vals[lo] != vals[lo] {
		lo++
	}
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		st.NDistinct++
		r := run{vals[i], j - i}
		at := ntop
		for at > 0 && top[at-1].n < r.n {
			at--
		}
		if at < maxMCV {
			ntop = min(ntop+1, maxMCV)
			copy(top[at+1:ntop], top[at:ntop-1])
			top[at] = r
		}
		i = j
	}
	if len(vals) > 0 {
		st.Min, st.Max = value(vals[min(lo, len(vals)-1)]), value(vals[len(vals)-1])
	}
	// Non-nil even when empty, so the schema JSON says [] as it always has.
	st.MostCommon = make([]catalog.ValueFreq, 0, ntop)
	for _, r := range top[:ntop] {
		// Only record values that are genuinely common; a flat column
		// gains nothing from MCVs.
		if float64(r.n)/float64(total) < 0.01 {
			break
		}
		st.MostCommon = append(st.MostCommon, catalog.ValueFreq{Value: value(r.v), Freq: float64(r.n) / float64(total)})
	}
	if hist != nil && len(vals) >= histogramBuckets {
		st.Histogram = make([]float64, histogramBuckets+1)
		for b := 0; b <= histogramBuckets; b++ {
			st.Histogram[b] = hist(vals[b*(len(vals)-1)/histogramBuckets])
		}
	}
	return st
}

// zeroSigns gives a zero Min, Max or MCV value its sign from the rows:
// the sort may place -0.0 and +0.0 in any order, but Min and Max keep the
// first zero in row order and an MCV value the last one.
func zeroSigns(st *catalog.ColumnStats, c *Column) {
	isZero := func(v sqltypes.Value) bool { return v.Kind() == sqltypes.KindFloat && v.Float() == 0 }
	mcv := slices.IndexFunc(st.MostCommon, func(e catalog.ValueFreq) bool { return isZero(e.Value) })
	if !isZero(st.Min) && !isZero(st.Max) && mcv < 0 {
		return
	}
	var first, last float64
	seen := false
	for i, f := range c.Floats {
		if f == 0 && !c.Null(i) {
			if !seen {
				first, seen = f, true
			}
			last = f
		}
	}
	if isZero(st.Min) {
		st.Min = sqltypes.NewFloat(first)
	}
	if isZero(st.Max) {
		st.Max = sqltypes.NewFloat(first)
	}
	if mcv >= 0 {
		st.MostCommon[mcv].Value = sqltypes.NewFloat(last)
	}
}
