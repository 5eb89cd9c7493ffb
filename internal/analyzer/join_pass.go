package analyzer

import (
	"fmt"
	"strings"

	"sqlbarber/internal/sqlparser"
)

// JoinPass detects cartesian products and degenerate join conditions: a JOIN
// whose ON clause never references the joined table (or references no column
// at all) multiplies cardinalities and produces the runaway costs the paper's
// profiling stage then wastes budget measuring. The engine accepts such
// joins, so these are warnings, not errors.
type JoinPass struct{}

// Name implements Pass.
func (JoinPass) Name() string { return "joins" }

// Run implements Pass.
func (JoinPass) Run(ctx *Context) []Diagnostic {
	var diags []Diagnostic
	ctx.EachSelect(func(s *sqlparser.SelectStmt, sc *scope) {
		// Reference names introduced so far, in join order: FROM first.
		introduced := map[string]bool{}
		if s.From != nil {
			introduced[strings.ToLower(s.From.Name())] = true
		}
		for _, j := range s.Joins {
			joined := strings.ToLower(j.Table.Name())
			refsJoined, refsPrior, refsAny := joinOnRefs(sc, j.On, joined, introduced)
			switch {
			case !refsAny:
				diags = append(diags, Diagnostic{
					Code: CodeDegenerateJoin, Severity: Warning, Span: ctx.SpanOf(j.On),
					Msg: fmt.Sprintf("join condition on %q references no columns: %s", j.Table.Name(), condSQL(j.On)),
					Fix: fmt.Sprintf("join %q on a foreign-key column pair", j.Table.Name()),
				})
			case !refsJoined || !refsPrior:
				diags = append(diags, Diagnostic{
					Code: CodeCartesianJoin, Severity: Warning, Span: ctx.SpanOf(j.On),
					Msg: fmt.Sprintf("join of %q is cartesian: ON clause does not connect it to the preceding tables", j.Table.Name()),
					Fix: fmt.Sprintf("add an equality between a column of %q and a column of an earlier table", j.Table.Name()),
				})
			}
			introduced[joined] = true
		}
	})
	return diags
}

// joinOnRefs classifies which side(s) of the join the ON expression touches.
func joinOnRefs(sc *scope, on sqlparser.Expr, joined string, prior map[string]bool) (refsJoined, refsPrior, refsAny bool) {
	sqlparser.Walk(on, func(e sqlparser.Expr) bool {
		cr, ok := e.(*sqlparser.ColumnRef)
		if !ok {
			return true
		}
		refsAny = true
		if cr.Table != "" {
			q := strings.ToLower(cr.Table)
			if q == joined {
				refsJoined = true
			}
			if prior[q] {
				refsPrior = true
			}
			return true
		}
		// Unqualified: attribute it to whichever table owns the column.
		inst, _, st := sc.resolve(cr)
		if st != resolved {
			// Unresolvable reference — the binder pass reports it; treat as
			// touching both sides so no bogus cartesian warning piles on.
			refsJoined, refsPrior = true, true
			return true
		}
		q := strings.ToLower(inst.refName)
		if q == joined {
			refsJoined = true
		}
		if prior[q] {
			refsPrior = true
		}
		return true
	}, nil)
	return
}

func condSQL(e sqlparser.Expr) string {
	if e == nil {
		return "<nil>"
	}
	return e.SQL()
}
