package analyzer

import (
	"fmt"
	"strings"

	"sqlbarber/internal/sqlparser"
)

// BinderPass mirrors the planner's name resolution (plan.Bind) without
// touching the engine: unknown relations, unknown and ambiguous columns,
// duplicate table names, and missing FROM clauses. Every defect it reports
// would make engine.DB.ValidateSyntax fail, so the generator can skip that
// round-trip entirely.
type BinderPass struct{}

// Name implements Pass.
func (BinderPass) Name() string { return "binder" }

// Run implements Pass.
func (BinderPass) Run(ctx *Context) []Diagnostic {
	var diags []Diagnostic
	ctx.EachSelect(func(s *sqlparser.SelectStmt, sc *scope) {
		if s.From == nil {
			diags = append(diags, Diagnostic{
				Code: CodeMissingFrom, Severity: Error,
				Msg: "queries without a FROM clause are not supported",
				Fix: "add a FROM clause naming a base table",
			})
			return
		}
		// Unknown relations and duplicate reference names.
		seen := map[string]bool{}
		checkRef := func(ref sqlparser.TableRef) {
			name := strings.ToLower(ref.Name())
			if seen[name] {
				diags = append(diags, Diagnostic{
					Code: CodeDuplicateTable, Severity: Error,
					Msg: fmt.Sprintf("table name %q specified more than once", ref.Name()),
					Fix: fmt.Sprintf("give the second occurrence of %q a distinct alias", ref.Table),
				})
			}
			seen[name] = true
			if ctx.Schema.Table(ref.Table) == nil {
				diags = append(diags, Diagnostic{
					Code: CodeUnknownTable, Severity: Error,
					Msg: fmt.Sprintf("relation %q does not exist", ref.Table),
					Fix: fmt.Sprintf("use one of the schema tables: %s", strings.Join(ctx.Schema.TableNames(), ", ")),
				})
			}
		}
		checkRef(*s.From)
		for _, j := range s.Joins {
			checkRef(j.Table)
		}
		// Column resolution over this level's own expressions.
		s.EachClause(func(clause string, top sqlparser.Expr) {
			sqlparser.Walk(top, func(e sqlparser.Expr) bool {
				cr, ok := e.(*sqlparser.ColumnRef)
				if !ok {
					return true
				}
				_, _, st := sc.resolve(cr)
				switch st {
				case unknownQualifier:
					diags = append(diags, Diagnostic{
						Code: CodeUnknownTable, Severity: Error, Span: ctx.SpanOf(cr),
						Msg: fmt.Sprintf("missing FROM-clause entry for table %q (in %s)", cr.Table, clause),
						Fix: fmt.Sprintf("qualify %q with a table that appears in FROM/JOIN", cr.Name),
					})
				case unknownColumn:
					diags = append(diags, Diagnostic{
						Code: CodeUnknownColumn, Severity: Error, Span: ctx.SpanOf(cr),
						Msg: fmt.Sprintf("column %q does not exist (in %s)", cr.SQL(), clause),
						Fix: suggestColumn(ctx, sc, cr),
					})
				case ambiguous:
					diags = append(diags, Diagnostic{
						Code: CodeAmbiguousColumn, Severity: Error, Span: ctx.SpanOf(cr),
						Msg: fmt.Sprintf("column reference %q is ambiguous (in %s)", cr.Name, clause),
						Fix: fmt.Sprintf("qualify %q with its table alias", cr.Name),
					})
				}
				return true
			}, nil)
		})
	})
	return diags
}

// suggestColumn builds a repair hint listing near-miss column names from the
// tables in scope (longest-common-prefix heuristic, good enough to steer an
// LLM repair prompt).
func suggestColumn(ctx *Context, sc *scope, cr *sqlparser.ColumnRef) string {
	want := strings.ToLower(cr.Name)
	best, bestScore := "", 0
	for s := sc; s != nil; s = s.parent {
		for _, inst := range s.tables {
			if inst.table == nil {
				continue
			}
			if cr.Table != "" && !strings.EqualFold(cr.Table, inst.refName) {
				continue
			}
			for _, col := range inst.table.Columns {
				score := commonPrefixLen(want, strings.ToLower(col.Name))
				if score > bestScore {
					bestScore = score
					best = inst.refName + "." + col.Name
				}
			}
		}
	}
	if best != "" && bestScore >= 3 {
		return fmt.Sprintf("did you mean %s?", best)
	}
	return "replace it with an existing column of a table in scope"
}

func commonPrefixLen(a, b string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}
