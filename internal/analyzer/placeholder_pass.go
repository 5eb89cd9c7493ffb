package analyzer

import (
	"fmt"

	"sqlbarber/internal/sqlparser"
)

// PlaceholderPass checks {p_i} sargability: every placeholder must appear in
// a monotone comparison (=, <, <=, >, >=, BETWEEN bound, IN-list member)
// against a resolvable column — exactly the contexts
// sqltemplate.BindPlaceholders can bind, and only in the clauses it scans
// (SELECT list, WHERE, HAVING). An unbindable placeholder slips through the
// DBMS check (ValidateSyntax substitutes neutral probes) only to kill the
// template later in profiling, wasting its whole Algorithm 1 budget;
// catching it statically lets the loop repair it for free.
type PlaceholderPass struct{}

// Name implements Pass.
func (PlaceholderPass) Name() string { return "placeholders" }

// Run implements Pass.
func (PlaceholderPass) Run(ctx *Context) []Diagnostic {
	bound := map[string]bool{}       // names BindPlaceholders would bind
	inPredicate := map[string]bool{} // names appearing in some predicate context
	var order []string
	seen := map[string]bool{}

	ctx.EachSelect(func(s *sqlparser.SelectStmt, sc *scope) {
		// Record every placeholder occurrence (template-wide name registry).
		s.EachClause(func(_ string, top sqlparser.Expr) {
			sqlparser.Walk(top, func(e sqlparser.Expr) bool {
				if ph, ok := e.(*sqlparser.Placeholder); ok && !seen[ph.Name] {
					seen[ph.Name] = true
					order = append(order, ph.Name)
				}
				return true
			}, nil)
		})
		// BindPlaceholders resolves the compared column against this level's
		// tables only (no outer-scope chaining), so mirror that here.
		local := &scope{stmt: s, tables: sc.tables, aliases: sc.aliases}
		resolves := func(e sqlparser.Expr) bool {
			cr, ok := e.(*sqlparser.ColumnRef)
			if !ok {
				return false
			}
			_, col, st := local.resolve(cr)
			return st == resolved && col != nil
		}
		// Binding contexts: the clauses BindPlaceholders scans.
		s.EachClause(func(clause string, be sqlparser.Expr) {
			if clause != "SELECT" && clause != "WHERE" && clause != "HAVING" {
				return
			}
			sqlparser.Walk(be, func(e sqlparser.Expr) bool {
				switch x := e.(type) {
				case *sqlparser.BinaryExpr:
					if !x.Op.IsComparison() {
						return true
					}
					if ph, ok := x.R.(*sqlparser.Placeholder); ok {
						inPredicate[ph.Name] = true
						if resolves(x.L) {
							bound[ph.Name] = true
						}
					}
					if ph, ok := x.L.(*sqlparser.Placeholder); ok {
						inPredicate[ph.Name] = true
						if resolves(x.R) {
							bound[ph.Name] = true
						}
					}
				case *sqlparser.BetweenExpr:
					for _, b := range []sqlparser.Expr{x.Lo, x.Hi} {
						if ph, ok := b.(*sqlparser.Placeholder); ok {
							inPredicate[ph.Name] = true
							if resolves(x.X) {
								bound[ph.Name] = true
							}
						}
					}
				case *sqlparser.InExpr:
					for _, it := range x.List {
						if ph, ok := it.(*sqlparser.Placeholder); ok {
							inPredicate[ph.Name] = true
							if resolves(x.X) {
								bound[ph.Name] = true
							}
						}
					}
				}
				return true
			}, nil)
		})
	})

	var diags []Diagnostic
	for _, name := range order {
		if bound[name] {
			continue
		}
		if inPredicate[name] {
			diags = append(diags, Diagnostic{
				Code: CodeUnsargable, Severity: Error,
				Msg: fmt.Sprintf("placeholder {%s} is not compared against a resolvable column; profiling cannot assign it a value domain", name),
				Fix: fmt.Sprintf("write the predicate as <table>.<column> <op> {%s}", name),
			})
		} else {
			diags = append(diags, Diagnostic{
				Code: CodeMisplacedMarker, Severity: Error,
				Msg: fmt.Sprintf("placeholder {%s} appears outside a WHERE/HAVING comparison predicate", name),
				Fix: fmt.Sprintf("move {%s} into a comparison against a column in WHERE or HAVING", name),
			})
		}
	}
	return diags
}
