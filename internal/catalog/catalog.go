// Package catalog models database metadata: tables, columns, primary and
// foreign keys, indexes, and per-column statistics. The planner's selectivity
// estimation, the template generator's schema summary, and the BO search
// space all read from here.
package catalog

import (
	"fmt"
	"sort"
	"strings"

	"sqlbarber/internal/sqltypes"
)

// ColumnType is the declared type of a column.
type ColumnType uint8

// Supported column types.
const (
	TypeInt ColumnType = iota
	TypeFloat
	TypeString
)

// String returns the SQL name of the column type.
func (t ColumnType) String() string {
	switch t {
	case TypeInt:
		return "INTEGER"
	case TypeFloat:
		return "DOUBLE"
	case TypeString:
		return "TEXT"
	}
	return fmt.Sprintf("ColumnType(%d)", uint8(t))
}

// Kind maps the column type to its runtime value kind.
func (t ColumnType) Kind() sqltypes.Kind {
	switch t {
	case TypeInt:
		return sqltypes.KindInt
	case TypeFloat:
		return sqltypes.KindFloat
	default:
		return sqltypes.KindString
	}
}

// ColumnStats holds optimizer statistics for one column, refreshed by
// storage.Table.Analyze.
type ColumnStats struct {
	// Min and Max bound the column's values (numeric columns only; for
	// strings they are the lexicographic extremes).
	Min, Max sqltypes.Value
	// NDistinct is the number of distinct non-null values.
	NDistinct int
	// NullFrac is the fraction of NULL values.
	NullFrac float64
	// MostCommon lists up to a few frequent values with their frequencies
	// (fraction of rows), used for equality selectivity on skewed columns.
	MostCommon []ValueFreq
	// Histogram holds equi-depth bucket boundaries over non-null values of
	// numeric columns; nil for strings or tiny tables.
	Histogram []float64
}

// ValueFreq pairs a value with its relative frequency.
type ValueFreq struct {
	Value sqltypes.Value
	Freq  float64
}

// Column describes one table column.
type Column struct {
	Name    string
	Type    ColumnType
	Stats   ColumnStats
	Indexed bool // true when a (simulated) secondary index exists
}

// ForeignKey links a column of this table to the primary key of another.
type ForeignKey struct {
	Column    string // local column name
	RefTable  string
	RefColumn string
}

// Table describes one table's schema and table-level statistics.
type Table struct {
	Name        string
	Columns     []Column
	PrimaryKey  string // name of the PK column ("" if none)
	ForeignKeys []ForeignKey
	RowCount    int
	// SizeBytes is an approximate on-disk size used in the schema summary.
	SizeBytes int64
}

// Column returns the named column, or nil if absent. Lookup is
// case-insensitive, matching the engine's identifier rules.
func (t *Table) Column(name string) *Column {
	for i := range t.Columns {
		if strings.EqualFold(t.Columns[i].Name, name) {
			return &t.Columns[i]
		}
	}
	return nil
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i := range t.Columns {
		if strings.EqualFold(t.Columns[i].Name, name) {
			return i
		}
	}
	return -1
}

// NumericColumns returns the names of all int/float columns.
func (t *Table) NumericColumns() []string {
	var out []string
	for _, c := range t.Columns {
		if c.Type == TypeInt || c.Type == TypeFloat {
			out = append(out, c.Name)
		}
	}
	return out
}

// Schema is a set of tables forming one database schema.
type Schema struct {
	Name   string
	Tables []*Table
}

// Table returns the named table, or nil. Case-insensitive.
func (s *Schema) Table(name string) *Table {
	for _, t := range s.Tables {
		if strings.EqualFold(t.Name, name) {
			return t
		}
	}
	return nil
}

// TableNames returns all table names in declaration order.
func (s *Schema) TableNames() []string {
	out := make([]string, len(s.Tables))
	for i, t := range s.Tables {
		out[i] = t.Name
	}
	return out
}

// JoinEdge is one joinable column pair derived from a foreign key.
type JoinEdge struct {
	LeftTable, LeftColumn   string
	RightTable, RightColumn string
}

// String renders the edge as "a.x = b.y".
func (e JoinEdge) String() string {
	return fmt.Sprintf("%s.%s = %s.%s", e.LeftTable, e.LeftColumn, e.RightTable, e.RightColumn)
}

// JoinEdges enumerates all FK-implied join edges in the schema.
func (s *Schema) JoinEdges() []JoinEdge {
	var edges []JoinEdge
	for _, t := range s.Tables {
		for _, fk := range t.ForeignKeys {
			edges = append(edges, JoinEdge{
				LeftTable: t.Name, LeftColumn: fk.Column,
				RightTable: fk.RefTable, RightColumn: fk.RefColumn,
			})
		}
	}
	return edges
}

// JoinPath is an ordered walk through the join graph: Tables has one more
// element than Edges, and Edges[i] connects a table already on the path to
// Tables[i+1].
type JoinPath struct {
	Tables []string
	Edges  []JoinEdge
}

// JoinPaths enumerates simple paths in the FK join graph with exactly
// numJoins edges (hence numJoins+1 tables). The result is deterministic
// (sorted by the path's table sequence) and capped at limit entries
// (limit <= 0 means no cap).
func (s *Schema) JoinPaths(numJoins, limit int) []JoinPath {
	if numJoins == 0 {
		var out []JoinPath
		for _, t := range s.Tables {
			out = append(out, JoinPath{Tables: []string{t.Name}})
		}
		return out
	}
	adj := map[string][]JoinEdge{}
	for _, e := range s.JoinEdges() {
		adj[strings.ToLower(e.LeftTable)] = append(adj[strings.ToLower(e.LeftTable)], e)
		rev := JoinEdge{LeftTable: e.RightTable, LeftColumn: e.RightColumn,
			RightTable: e.LeftTable, RightColumn: e.LeftColumn}
		adj[strings.ToLower(e.RightTable)] = append(adj[strings.ToLower(e.RightTable)], rev)
	}
	var out []JoinPath
	var walk func(path JoinPath, seen map[string]bool)
	walk = func(path JoinPath, seen map[string]bool) {
		if limit > 0 && len(out) >= limit*4 {
			return
		}
		if len(path.Edges) == numJoins {
			cp := JoinPath{Tables: append([]string(nil), path.Tables...),
				Edges: append([]JoinEdge(nil), path.Edges...)}
			out = append(out, cp)
			return
		}
		last := path.Tables[len(path.Tables)-1]
		for _, e := range adj[strings.ToLower(last)] {
			if seen[strings.ToLower(e.RightTable)] {
				continue
			}
			seen[strings.ToLower(e.RightTable)] = true
			path.Tables = append(path.Tables, e.RightTable)
			path.Edges = append(path.Edges, e)
			walk(path, seen)
			path.Tables = path.Tables[:len(path.Tables)-1]
			path.Edges = path.Edges[:len(path.Edges)-1]
			delete(seen, strings.ToLower(e.RightTable))
		}
	}
	for _, t := range s.Tables {
		walk(JoinPath{Tables: []string{t.Name}}, map[string]bool{strings.ToLower(t.Name): true})
	}
	// Sort by the table sequence, each path's key computed once.
	keyed := make([]keyedPath, len(out))
	for i, p := range out {
		keyed[i] = keyedPath{strings.Join(p.Tables, ","), p}
	}
	sort.Slice(keyed, func(i, j int) bool { return keyed[i].key < keyed[j].key })
	// Drop reversed duplicates (a-b vs b-a) keeping the lexicographically
	// smaller orientation.
	var dedup []JoinPath
	seen := map[string]bool{}
	for _, kp := range keyed {
		rev := strings.Join(reverse(kp.path.Tables), ",")
		if seen[kp.key] || seen[rev] {
			continue
		}
		seen[kp.key] = true
		dedup = append(dedup, kp.path)
	}
	if limit > 0 && len(dedup) > limit {
		dedup = dedup[:limit]
	}
	return dedup
}

// keyedPath is a join path with its sort key, its tables joined by ",".
type keyedPath struct {
	key  string
	path JoinPath
}

func reverse(s []string) []string {
	out := make([]string, len(s))
	for i, v := range s {
		out[len(s)-1-i] = v
	}
	return out
}

// Summary produces the textual database schema summary of §4 Step 1:
// table-level (names, sizes, tuple counts), column-level (names, types,
// distinct counts), and constraint-level (PK/FK, indexes) metadata. Setting
// only restricts output to the named tables (nil means all).
func (s *Schema) Summary(only []string) string {
	include := func(name string) bool {
		if only == nil {
			return true
		}
		for _, n := range only {
			if strings.EqualFold(n, name) {
				return true
			}
		}
		return false
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Database %q schema summary:\n", s.Name)
	for _, t := range s.Tables {
		if !include(t.Name) {
			continue
		}
		fmt.Fprintf(&b, "TABLE %s (%d rows, ~%d KB)", t.Name, t.RowCount, t.SizeBytes/1024)
		if t.PrimaryKey != "" {
			fmt.Fprintf(&b, " PRIMARY KEY (%s)", t.PrimaryKey)
		}
		b.WriteByte('\n')
		for _, c := range t.Columns {
			fmt.Fprintf(&b, "  %s %s ndistinct=%d", c.Name, c.Type, c.Stats.NDistinct)
			if c.Stats.Min.Kind() != sqltypes.KindNull {
				fmt.Fprintf(&b, " min=%s max=%s", c.Stats.Min, c.Stats.Max)
			}
			if c.Indexed {
				b.WriteString(" indexed")
			}
			b.WriteByte('\n')
		}
		for _, fk := range t.ForeignKeys {
			fmt.Fprintf(&b, "  FOREIGN KEY (%s) REFERENCES %s(%s)\n", fk.Column, fk.RefTable, fk.RefColumn)
		}
	}
	return b.String()
}
