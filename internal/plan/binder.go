// Package plan implements the embedded engine's query planner: name
// resolution, PostgreSQL-style selectivity estimation and cost modelling,
// and EXPLAIN output. SQLBarber consumes its two top-level estimates —
// cardinality and total plan cost — exactly as the paper consumes
// PostgreSQL's EXPLAIN.
package plan

import (
	"fmt"
	"strings"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/sqlparser"
)

// SemanticError reports a binding problem (unknown table/column, ambiguous
// reference, misplaced aggregate). Its message mimics a DBMS error so the
// self-correction loop receives realistic feedback.
type SemanticError struct {
	Msg string
}

// Error implements the error interface.
func (e *SemanticError) Error() string { return e.Msg }

func semErrf(format string, args ...any) *SemanticError {
	return &SemanticError{Msg: fmt.Sprintf(format, args...)}
}

// TableInstance is one table occurrence in a FROM clause.
type TableInstance struct {
	RefName string // alias or table name, used to qualify columns
	Table   *catalog.Table
}

// Scope is the name-resolution environment of one SELECT, chained to the
// enclosing query's scope for correlated subqueries.
type Scope struct {
	Tables []TableInstance
	Parent *Scope
}

// ColRef is a resolved column: Level hops up the scope chain (0 = current
// query), then TableIdx/ColIdx within that scope.
type ColRef struct {
	Level    int
	TableIdx int
	ColIdx   int
}

// Resolve finds the column for a (possibly qualified) reference.
func (s *Scope) Resolve(table, column string) (ColRef, error) {
	level := 0
	for sc := s; sc != nil; sc = sc.Parent {
		found := ColRef{Level: -1}
		matches := 0
		for ti, inst := range sc.Tables {
			if table != "" && !strings.EqualFold(table, inst.RefName) {
				continue
			}
			ci := inst.Table.ColumnIndex(column)
			if ci < 0 {
				if table != "" {
					return ColRef{}, semErrf("column %q does not exist in table %q", column, inst.RefName)
				}
				continue
			}
			found = ColRef{Level: level, TableIdx: ti, ColIdx: ci}
			matches++
		}
		if matches > 1 {
			return ColRef{}, semErrf("column reference %q is ambiguous", column)
		}
		if matches == 1 {
			return found, nil
		}
		if table != "" {
			// Qualifier did not match any table at this level; try outer.
			hasTable := false
			for _, inst := range sc.Tables {
				if strings.EqualFold(table, inst.RefName) {
					hasTable = true
				}
			}
			if hasTable {
				return ColRef{}, semErrf("column %q does not exist in table %q", column, table)
			}
		}
		level++
	}
	if table != "" {
		return ColRef{}, semErrf("missing FROM-clause entry for table %q", table)
	}
	return ColRef{}, semErrf("column %q does not exist", column)
}

// Binding holds the full resolution of one statement tree.
type Binding struct {
	Schema *catalog.Schema
	Scope  *Scope
	// Cols maps every ColumnRef node to its resolution.
	Cols map[*sqlparser.ColumnRef]ColRef
	// Subqueries maps each nested SELECT to its own binding.
	Subqueries map[*sqlparser.SelectStmt]*Binding
	// Aliases maps select-item aliases to their expressions, letting
	// GROUP BY / HAVING / ORDER BY reference output names.
	Aliases map[string]sqlparser.Expr
}

// Bind resolves all names in stmt against the schema, chaining to parent for
// correlated subqueries (parent may be nil).
func Bind(schema *catalog.Schema, stmt *sqlparser.SelectStmt, parent *Scope) (*Binding, error) {
	if stmt.From == nil {
		return nil, semErrf("queries without a FROM clause are not supported")
	}
	scope := &Scope{Parent: parent}
	addTable := func(ref sqlparser.TableRef) error {
		t := schema.Table(ref.Table)
		if t == nil {
			return semErrf("relation %q does not exist", ref.Table)
		}
		name := ref.Name()
		for _, inst := range scope.Tables {
			if strings.EqualFold(inst.RefName, name) {
				return semErrf("table name %q specified more than once", name)
			}
		}
		scope.Tables = append(scope.Tables, TableInstance{RefName: name, Table: t})
		return nil
	}
	if err := addTable(*stmt.From); err != nil {
		return nil, err
	}
	for _, j := range stmt.Joins {
		if err := addTable(j.Table); err != nil {
			return nil, err
		}
	}
	b := &Binding{
		Schema:     schema,
		Scope:      scope,
		Cols:       map[*sqlparser.ColumnRef]ColRef{},
		Subqueries: map[*sqlparser.SelectStmt]*Binding{},
		Aliases:    map[string]sqlparser.Expr{},
	}
	for _, it := range stmt.Items {
		if it.Alias != "" && it.Expr != nil {
			b.Aliases[strings.ToLower(it.Alias)] = it.Expr
		}
	}
	// One walk per clause in rendering order; the first error wins, so an
	// unresolvable column beats an error inside a later subquery.
	var bindErr error
	// aliasClause is set while walking GROUP BY, HAVING and ORDER BY, the
	// clauses that may name an output alias. The select list, ON and WHERE
	// bind to columns, so `SELECT age + 1 AS age ... WHERE age > 28` reads
	// the column age in both places.
	aliasClause := false
	bindExpr := func(e sqlparser.Expr) bool {
		if bindErr != nil {
			return false
		}
		switch t := e.(type) {
		case *sqlparser.ColumnRef:
			col := t
			if aliasClause && t.Table == "" {
				if alias, ok := b.Aliases[strings.ToLower(t.Name)]; ok {
					// Output-alias reference (GROUP BY alias). A plain-column
					// alias binds to the aliased column; a computed one is
					// evaluated via the alias map.
					aliased, isCol := alias.(*sqlparser.ColumnRef)
					if !isCol {
						return false
					}
					col = aliased
				}
			}
			ref, err := scope.Resolve(col.Table, col.Name)
			if err != nil {
				bindErr = err
				return false
			}
			b.Cols[t] = ref
		case *sqlparser.Placeholder:
			bindErr = semErrf("placeholder {%s} must be instantiated before planning", t.Name)
		}
		return bindErr == nil
	}
	bindSub := func(sub *sqlparser.SelectStmt) {
		if bindErr != nil {
			return
		}
		sb, err := Bind(schema, sub, scope)
		if err != nil {
			bindErr = err
			return
		}
		b.Subqueries[sub] = sb
	}
	stmt.EachClause(func(clause string, e sqlparser.Expr) {
		aliasClause = clause == "GROUP BY" || clause == "HAVING" || clause == "ORDER BY"
		sqlparser.Walk(e, bindExpr, bindSub)
	})
	if bindErr != nil {
		return nil, bindErr
	}
	if err := checkAggregates(stmt); err != nil {
		return nil, err
	}
	return b, nil
}

// checkAggregates enforces basic aggregate placement rules.
func checkAggregates(stmt *sqlparser.SelectStmt) error {
	if sqlparser.ContainsAggregate(stmt.Where) {
		return semErrf("aggregate functions are not allowed in WHERE")
	}
	for _, g := range stmt.GroupBy {
		if sqlparser.ContainsAggregate(g) {
			return semErrf("aggregate functions are not allowed in GROUP BY")
		}
	}
	if stmt.Having != nil && len(stmt.GroupBy) == 0 && !hasAggregateOutput(stmt) {
		return semErrf("HAVING requires GROUP BY or aggregates")
	}
	return nil
}

// hasAggregateOutput reports whether any select item aggregates.
func hasAggregateOutput(stmt *sqlparser.SelectStmt) bool {
	for _, it := range stmt.Items {
		if sqlparser.ContainsAggregate(it.Expr) {
			return true
		}
	}
	return false
}

// isAggregateQuery reports whether the statement needs an aggregation step.
func isAggregateQuery(stmt *sqlparser.SelectStmt) bool {
	return len(stmt.GroupBy) > 0 || hasAggregateOutput(stmt) ||
		sqlparser.ContainsAggregate(stmt.Having)
}
