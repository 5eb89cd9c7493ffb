// Package sqltemplate models SQL templates (Definition 2.1): SQL statements
// with {p_i} placeholders, their structural features (joins, aggregations,
// tables, predicates, subqueries), the mapping from placeholders to schema
// columns, and instantiation into executable SQL queries (Definition 2.3).
package sqltemplate

import (
	"fmt"
	"strings"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/sqltypes"
)

// Template is one SQL template.
type Template struct {
	ID   int
	Text string
	Stmt *sqlparser.SelectStmt
}

// Parse parses template SQL (placeholders allowed).
func Parse(sql string) (*Template, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return &Template{Text: stmt.SQL(), Stmt: stmt}, nil
}

// MustParse parses or panics; for tests and literals.
func MustParse(sql string) *Template {
	t, err := Parse(sql)
	if err != nil {
		panic(err)
	}
	return t
}

// SQL returns the canonical template text.
func (t *Template) SQL() string { return t.Text }

// Placeholders returns the distinct placeholder names in first-appearance
// order.
func (t *Template) Placeholders() []string {
	var names []string
	seen := map[string]bool{}
	collect := func(s *sqlparser.SelectStmt) {
		s.WalkExprs(func(e sqlparser.Expr) {
			if ph, ok := e.(*sqlparser.Placeholder); ok && !seen[ph.Name] {
				seen[ph.Name] = true
				names = append(names, ph.Name)
			}
		})
	}
	collect(t.Stmt)
	return names
}

// Features summarizes a template's structure for specification checking
// (Definition 2.5).
type Features struct {
	NumTables       int // distinct base tables accessed (subqueries included)
	NumJoins        int // JOIN clauses (subqueries included)
	NumAggregations int // aggregate function calls
	NumPredicates   int // distinct placeholders
	HasGroupBy      bool
	HasNestedQuery  bool
	HasOrderBy      bool
	HasDistinct     bool
	// HasComplexScalar reports arithmetic of depth >= 2 or CASE expressions
	// in the select list — the BI-workload trait of §2.
	HasComplexScalar bool
}

// Features computes the structural features of the template.
func (t *Template) Features() Features {
	var f Features
	tables := map[string]bool{}
	var scan func(s *sqlparser.SelectStmt)
	scan = func(s *sqlparser.SelectStmt) {
		if s.From != nil {
			tables[strings.ToLower(s.From.Table)] = true
		}
		for _, j := range s.Joins {
			tables[strings.ToLower(j.Table.Table)] = true
		}
		f.NumJoins += len(s.Joins)
		if len(s.GroupBy) > 0 {
			f.HasGroupBy = true
		}
		if len(s.OrderBy) > 0 {
			f.HasOrderBy = true
		}
		if s.Distinct {
			f.HasDistinct = true
		}
		for _, sub := range s.DirectSubqueries() {
			f.HasNestedQuery = true
			scan(sub)
		}
	}
	scan(t.Stmt)
	f.NumTables = len(tables)
	f.NumPredicates = len(t.Placeholders())
	f.HasComplexScalar = hasComplexScalar(t.Stmt)
	f.NumAggregations = countAggs(t.Stmt)
	return f
}

// countAggs counts the aggregate calls in the outer query's select list
// and HAVING. Only the outer query's aggregations count: a MIN inside a
// nested filter subquery is plumbing, not a workload characteristic.
func countAggs(s *sqlparser.SelectStmt) int {
	n := 0
	count := func(e sqlparser.Expr) bool {
		if f, ok := e.(*sqlparser.FuncCall); ok && f.IsAggregate() {
			n++
		}
		return true
	}
	s.EachClause(func(clause string, e sqlparser.Expr) {
		if clause == "SELECT" || clause == "HAVING" {
			sqlparser.Walk(e, count, nil)
		}
	})
	return n
}

// hasComplexScalar detects CASE expressions or nested arithmetic in the
// select list.
func hasComplexScalar(s *sqlparser.SelectStmt) bool {
	depth := func(e sqlparser.Expr) int {
		var d func(e sqlparser.Expr) int
		d = func(e sqlparser.Expr) int {
			switch t := e.(type) {
			case *sqlparser.BinaryExpr:
				if t.Op.IsComparison() || t.Op == sqlparser.OpAnd || t.Op == sqlparser.OpOr {
					return max(d(t.L), d(t.R))
				}
				return 1 + max(d(t.L), d(t.R))
			case *sqlparser.FuncCall:
				m := 0
				for _, a := range t.Args {
					if v := d(a); v > m {
						m = v
					}
				}
				return m
			case *sqlparser.CaseExpr:
				return 2
			}
			return 0
		}
		return d(e)
	}
	for _, it := range s.Items {
		if it.Expr != nil && depth(it.Expr) >= 2 {
			return true
		}
	}
	return false
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// PlaceholderBinding associates one placeholder with the column it is
// compared against, which defines its value domain for profiling and BO.
type PlaceholderBinding struct {
	Name   string
	Table  *catalog.Table
	Column *catalog.Column
}

// BindPlaceholders maps each placeholder to the schema column it constrains
// by walking comparison/BETWEEN/IN contexts. Placeholders not adjacent to a
// recognizable column produce an error — such templates cannot be profiled.
func (t *Template) BindPlaceholders(schema *catalog.Schema) ([]PlaceholderBinding, error) {
	bindings := map[string]PlaceholderBinding{}
	var scan func(s *sqlparser.SelectStmt) error
	scan = func(s *sqlparser.SelectStmt) error {
		// Alias map for this level.
		aliases := map[string]string{}
		if s.From != nil {
			aliases[strings.ToLower(s.From.Name())] = s.From.Table
		}
		for _, j := range s.Joins {
			aliases[strings.ToLower(j.Table.Name())] = j.Table.Table
		}
		resolve := func(cr *sqlparser.ColumnRef) (*catalog.Table, *catalog.Column) {
			if cr.Table != "" {
				tblName, ok := aliases[strings.ToLower(cr.Table)]
				if !ok {
					return nil, nil
				}
				tbl := schema.Table(tblName)
				if tbl == nil {
					return nil, nil
				}
				return tbl, tbl.Column(cr.Name)
			}
			for _, tblName := range aliases {
				tbl := schema.Table(tblName)
				if tbl == nil {
					continue
				}
				if col := tbl.Column(cr.Name); col != nil {
					return tbl, col
				}
			}
			return nil, nil
		}
		record := func(ph *sqlparser.Placeholder, colExpr sqlparser.Expr) {
			cr, ok := colExpr.(*sqlparser.ColumnRef)
			if !ok {
				return
			}
			tbl, col := resolve(cr)
			if col == nil {
				return
			}
			if _, dup := bindings[ph.Name]; !dup {
				bindings[ph.Name] = PlaceholderBinding{Name: ph.Name, Table: tbl, Column: col}
			}
		}
		visit := func(e sqlparser.Expr) bool {
			switch x := e.(type) {
			case *sqlparser.BinaryExpr:
				if x.Op.IsComparison() {
					if ph, ok := x.R.(*sqlparser.Placeholder); ok {
						record(ph, x.L)
					}
					if ph, ok := x.L.(*sqlparser.Placeholder); ok {
						record(ph, x.R)
					}
				}
			case *sqlparser.BetweenExpr:
				if ph, ok := x.Lo.(*sqlparser.Placeholder); ok {
					record(ph, x.X)
				}
				if ph, ok := x.Hi.(*sqlparser.Placeholder); ok {
					record(ph, x.X)
				}
			case *sqlparser.InExpr:
				for _, it := range x.List {
					if ph, ok := it.(*sqlparser.Placeholder); ok {
						record(ph, x.X)
					}
				}
			}
			return true
		}
		s.EachClause(func(clause string, e sqlparser.Expr) {
			if clause == "SELECT" || clause == "WHERE" || clause == "HAVING" {
				sqlparser.Walk(e, visit, nil)
			}
		})
		for _, sub := range s.DirectSubqueries() {
			if err := scan(sub); err != nil {
				return err
			}
		}
		return nil
	}
	if err := scan(t.Stmt); err != nil {
		return nil, err
	}
	var out []PlaceholderBinding
	for _, name := range t.Placeholders() {
		b, ok := bindings[name]
		if !ok {
			return nil, fmt.Errorf("sqltemplate: placeholder {%s} is not bound to a column", name)
		}
		out = append(out, b)
	}
	return out, nil
}

// Instantiate substitutes placeholder values into the template text,
// returning executable SQL. Missing values are an error. A placeholder is
// a '{', one or more bytes that are neither brace, and a '}'; the name is
// those bytes, trimmed of spaces.
func (t *Template) Instantiate(vals map[string]sqltypes.Value) (string, error) {
	var missing []string
	var b strings.Builder
	s := t.Text
	for {
		i := strings.IndexByte(s, '{')
		if i < 0 {
			break
		}
		j := strings.IndexAny(s[i+1:], "{}")
		if j < 0 {
			break // no brace closes this one or any later '{'
		}
		if j == 0 || s[i+1+j] == '{' {
			// Empty, or another '{' opens first: no placeholder starts here.
			b.WriteString(s[:i+1])
			s = s[i+1:]
			continue
		}
		b.WriteString(s[:i])
		m := s[i : i+j+2]
		s = s[i+j+2:]
		name := strings.TrimSpace(m[1 : len(m)-1])
		v, ok := vals[name]
		if !ok {
			missing = append(missing, name)
			b.WriteString(m)
			continue
		}
		b.WriteString(v.SQLLiteral())
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("sqltemplate: missing values for placeholders %v", missing)
	}
	b.WriteString(s)
	return b.String(), nil
}

// Clone returns a deep copy with a fresh parse of the same text.
func (t *Template) Clone() *Template {
	c := MustParse(t.Text)
	c.ID = t.ID
	return c
}
