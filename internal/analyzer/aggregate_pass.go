package analyzer

import (
	"fmt"
	"strings"

	"sqlbarber/internal/sqlparser"
)

// AggregatePass enforces aggregate placement and GROUP BY conformance:
// aggregates in WHERE/GROUP BY, nested aggregates, HAVING without grouping,
// and ungrouped select-list columns. The first three mirror DBMS rejections
// (Error); ungrouped columns are a Warning because the embedded engine —
// like SQLite or MySQL without ONLY_FULL_GROUP_BY — tolerates them.
type AggregatePass struct{}

// Name implements Pass.
func (AggregatePass) Name() string { return "aggregates" }

// Run implements Pass.
func (AggregatePass) Run(ctx *Context) []Diagnostic {
	var diags []Diagnostic
	ctx.EachSelect(func(s *sqlparser.SelectStmt, sc *scope) {
		if sqlparser.ContainsAggregate(s.Where) {
			diags = append(diags, Diagnostic{
				Code: CodeAggregateInWhere, Severity: Error, Span: ctx.SpanOf(s.Where),
				Msg: "aggregate functions are not allowed in WHERE",
				Fix: "move the aggregate condition into a HAVING clause",
			})
		}
		for _, g := range s.GroupBy {
			if sqlparser.ContainsAggregate(g) {
				diags = append(diags, Diagnostic{
					Code: CodeAggregateInGroupBy, Severity: Error, Span: ctx.SpanOf(g),
					Msg: "aggregate functions are not allowed in GROUP BY",
					Fix: "group by the underlying column instead of the aggregate",
				})
			}
		}
		if s.Having != nil && len(s.GroupBy) == 0 && !selectListAggregates(s) {
			diags = append(diags, Diagnostic{
				Code: CodeHavingWithoutGroup, Severity: Error, Span: ctx.SpanOf(s.Having),
				Msg: "HAVING requires GROUP BY or aggregates",
				Fix: "add a GROUP BY clause or move the condition to WHERE",
			})
		}
		// Nested aggregates: an aggregate call inside another's argument.
		s.EachClause(func(_ string, top sqlparser.Expr) {
			sqlparser.Walk(top, func(e sqlparser.Expr) bool {
				f, ok := e.(*sqlparser.FuncCall)
				if !ok || !f.IsAggregate() {
					return true
				}
				for _, a := range f.Args {
					if sqlparser.ContainsAggregate(a) {
						diags = append(diags, Diagnostic{
							Code: CodeNestedAggregate, Severity: Error, Span: ctx.SpanOf(f),
							Msg: fmt.Sprintf("aggregate calls cannot be nested: %s", f.SQL()),
							Fix: "aggregate the raw column in a subquery, then aggregate its result",
						})
					}
				}
				return true
			}, nil)
		})
		// GROUP BY conformance (warning tier).
		if len(s.GroupBy) > 0 {
			grouped := map[string]bool{}
			for _, g := range s.GroupBy {
				grouped[strings.ToLower(g.SQL())] = true
			}
			for _, it := range s.Items {
				if it.Expr == nil || sqlparser.ContainsAggregate(it.Expr) {
					continue
				}
				if grouped[strings.ToLower(it.Expr.SQL())] {
					continue
				}
				if it.Alias != "" && grouped[strings.ToLower(it.Alias)] {
					continue
				}
				// Flag only items that reference a column at this level.
				hasCol := false
				sqlparser.Walk(it.Expr, func(e sqlparser.Expr) bool {
					if _, ok := e.(*sqlparser.ColumnRef); ok {
						hasCol = true
					}
					return true
				}, nil)
				if hasCol {
					diags = append(diags, Diagnostic{
						Code: CodeUngroupedColumn, Severity: Warning, Span: ctx.SpanOf(it.Expr),
						Msg: fmt.Sprintf("select item %s is neither aggregated nor in GROUP BY", it.Expr.SQL()),
						Fix: "add it to GROUP BY or wrap it in an aggregate",
					})
				}
			}
		}
	})
	return diags
}

// selectListAggregates reports whether any select item aggregates.
func selectListAggregates(s *sqlparser.SelectStmt) bool {
	for _, it := range s.Items {
		if sqlparser.ContainsAggregate(it.Expr) {
			return true
		}
	}
	return false
}
