// Package storage implements the in-memory row store backing the embedded
// SQL engine, including the ANALYZE pass that populates optimizer statistics
// in the catalog.
package storage

import (
	"cmp"
	"fmt"
	"slices"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/sqltypes"
)

// Row is one tuple; columns are positional per the table schema.
type Row []sqltypes.Value

// Table couples a catalog schema entry with its rows.
type Table struct {
	Meta *catalog.Table
	Rows []Row
}

// Append adds a row, panicking on arity mismatch (programming error).
func (t *Table) Append(r Row) {
	if len(r) != len(t.Meta.Columns) {
		panic(fmt.Sprintf("storage: row arity %d != %d columns of %s", len(r), len(t.Meta.Columns), t.Meta.Name))
	}
	t.Rows = append(t.Rows, r)
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
		db.tables[lower(t.Name)] = &Table{Meta: t}
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
// so the planner sees fresh statistics. Every non-null value must have its
// column's kind (catalog.ColumnType.Kind); Analyze panics otherwise, naming
// the table and column.
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
	meta.RowCount = len(t.Rows)
	var width int64
	for i := range meta.Columns {
		col := &meta.Columns[i]
		col.Stats = columnStats(t, i, sc)
		switch col.Type {
		case catalog.TypeString:
			width += 24
		default:
			width += 8
		}
	}
	meta.SizeBytes = width * int64(len(t.Rows))
}

// columnStats computes one column's statistics from a single sort of its
// non-null payloads.
func columnStats(t *Table, idx int, sc *sortScratch) catalog.ColumnStats {
	if len(t.Rows) == 0 {
		return catalog.ColumnStats{}
	}
	var nulls int
	switch t.Meta.Columns[idx].Type.Kind() {
	case sqltypes.KindInt:
		sc.ints, nulls = payloads(sc.ints, t, idx, sqltypes.Value.Int)
		return sortedStats(sc.ints, nulls, len(t.Rows), sqltypes.NewInt, func(v int64) float64 { return float64(v) })
	case sqltypes.KindFloat:
		sc.floats, nulls = payloads(sc.floats, t, idx, sqltypes.Value.Float)
		st := sortedStats(sc.floats, nulls, len(t.Rows), sqltypes.NewFloat, func(v float64) float64 { return v })
		zeroSigns(&st, t.Rows, idx)
		return st
	default:
		sc.strs, nulls = payloads(sc.strs, t, idx, sqltypes.Value.Str)
		return sortedStats(sc.strs, nulls, len(t.Rows), sqltypes.NewString, nil)
	}
}

// payloads refills buf with the payloads of column idx's non-null values in
// row order and counts the nulls. A value of another kind than the column's
// is a programming error, like an arity mismatch in Append.
func payloads[T any](buf []T, t *Table, idx int, get func(sqltypes.Value) T) ([]T, int) {
	col := &t.Meta.Columns[idx]
	kind := col.Type.Kind()
	buf, nulls := slices.Grow(buf[:0], len(t.Rows)), 0
	for _, r := range t.Rows {
		v := r[idx]
		if v.Kind() != kind {
			if v.IsNull() {
				nulls++
				continue
			}
			panic(fmt.Sprintf("storage: column %s.%s (%s) holds a value of kind %s", t.Meta.Name, col.Name, col.Type, v.Kind()))
		}
		buf = append(buf, get(v))
	}
	return buf, nulls
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
func zeroSigns(st *catalog.ColumnStats, rows []Row, idx int) {
	isZero := func(v sqltypes.Value) bool { return v.Kind() == sqltypes.KindFloat && v.Float() == 0 }
	mcv := slices.IndexFunc(st.MostCommon, func(e catalog.ValueFreq) bool { return isZero(e.Value) })
	if !isZero(st.Min) && !isZero(st.Max) && mcv < 0 {
		return
	}
	var first, last sqltypes.Value
	for _, r := range rows {
		if v := r[idx]; isZero(v) {
			if first.IsNull() {
				first = v
			}
			last = v
		}
	}
	if isZero(st.Min) {
		st.Min = first
	}
	if isZero(st.Max) {
		st.Max = first
	}
	if mcv >= 0 {
		st.MostCommon[mcv].Value = last
	}
}
