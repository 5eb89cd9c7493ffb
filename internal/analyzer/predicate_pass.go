package analyzer

import (
	"fmt"
	"strings"

	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/sqltypes"
)

// PredicatePass finds predicates that are statically decidable: literal
// comparisons that are always false (the whole conjunction returns nothing),
// contradictory equality/range constraints on the same column, and trivially
// true constant conditions. All of these are accepted by the engine, so they
// surface as warnings/info — but a workload full of empty-result queries
// defeats cost profiling, which is why the generator logs them.
type PredicatePass struct{}

// Name implements Pass.
func (PredicatePass) Name() string { return "predicates" }

// Run implements Pass.
func (PredicatePass) Run(ctx *Context) []Diagnostic {
	var diags []Diagnostic
	ctx.EachSelect(func(s *sqlparser.SelectStmt, sc *scope) {
		for _, cond := range []sqlparser.Expr{s.Where, s.Having} {
			if cond == nil {
				continue
			}
			diags = append(diags, checkConstantComparisons(ctx, cond)...)
			diags = append(diags, checkContradictions(ctx, cond)...)
		}
	})
	return diags
}

// evalLiteralCmp decides a comparison between two literals; ok=false when
// either side is not a literal.
func evalLiteralCmp(op sqlparser.BinaryOp, l, r sqlparser.Expr) (result, ok bool) {
	ll, lok := l.(*sqlparser.Literal)
	rl, rok := r.(*sqlparser.Literal)
	if !lok || !rok {
		return false, false
	}
	c := ll.Value.Compare(rl.Value)
	switch op {
	case sqlparser.OpEq:
		return c == 0, true
	case sqlparser.OpNe:
		return c != 0, true
	case sqlparser.OpLt:
		return c < 0, true
	case sqlparser.OpLe:
		return c <= 0, true
	case sqlparser.OpGt:
		return c > 0, true
	case sqlparser.OpGe:
		return c >= 0, true
	}
	return false, false
}

// checkConstantComparisons flags literal-vs-literal comparisons and
// impossible literal BETWEEN ranges anywhere in the condition tree.
func checkConstantComparisons(ctx *Context, cond sqlparser.Expr) []Diagnostic {
	var diags []Diagnostic
	sqlparser.Walk(cond, func(e sqlparser.Expr) bool {
		switch t := e.(type) {
		case *sqlparser.BinaryExpr:
			if !t.Op.IsComparison() {
				return true
			}
			res, ok := evalLiteralCmp(t.Op, t.L, t.R)
			if !ok {
				return true
			}
			if !res {
				diags = append(diags, Diagnostic{
					Code: CodeAlwaysFalse, Severity: Warning, Span: ctx.SpanOf(t),
					Msg: fmt.Sprintf("predicate %s is always false", t.SQL()),
					Fix: "remove the contradiction or compare against a column",
				})
			} else {
				diags = append(diags, Diagnostic{
					Code: CodeConstantPredic, Severity: Info, Span: ctx.SpanOf(t),
					Msg: fmt.Sprintf("predicate %s is always true", t.SQL()),
				})
			}
		case *sqlparser.BetweenExpr:
			lo, lok := t.Lo.(*sqlparser.Literal)
			hi, hok := t.Hi.(*sqlparser.Literal)
			if lok && hok && lo.Value.Compare(hi.Value) > 0 && !t.Not {
				diags = append(diags, Diagnostic{
					Code: CodeAlwaysFalse, Severity: Warning, Span: ctx.SpanOf(t),
					Msg: fmt.Sprintf("BETWEEN range is empty: %s", t.SQL()),
					Fix: "swap the BETWEEN bounds",
				})
			}
		}
		return true
	}, nil)
	return diags
}

// colBound is one literal constraint on a column inside a conjunction.
type colBound struct {
	op  sqlparser.BinaryOp
	val sqltypes.Value
	sql string
}

// checkContradictions walks the top-level AND-conjunction and reports
// columns constrained to disjoint value sets: `c = 1 AND c = 2`, or a lower
// bound above an upper bound (`c > 9 AND c < 3`).
func checkContradictions(ctx *Context, cond sqlparser.Expr) []Diagnostic {
	bounds := map[string][]colBound{}
	var collect func(e sqlparser.Expr)
	collect = func(e sqlparser.Expr) {
		b, ok := e.(*sqlparser.BinaryExpr)
		if !ok {
			return
		}
		if b.Op == sqlparser.OpAnd {
			collect(b.L)
			collect(b.R)
			return
		}
		if !b.Op.IsComparison() {
			return
		}
		// Normalize to column-op-literal.
		col, lit, op := b.L, b.R, b.Op
		if _, isLit := col.(*sqlparser.Literal); isLit {
			col, lit = lit, col
			op = flipOp(op)
		}
		cr, crOK := col.(*sqlparser.ColumnRef)
		lv, litOK := lit.(*sqlparser.Literal)
		if !crOK || !litOK {
			return
		}
		key := strings.ToLower(cr.SQL())
		bounds[key] = append(bounds[key], colBound{op: op, val: lv.Value, sql: b.SQL()})
	}
	collect(cond)

	var diags []Diagnostic
	for col, bs := range bounds {
		if len(bs) < 2 {
			continue
		}
		if msg := contradictionIn(bs); msg != "" {
			diags = append(diags, Diagnostic{
				Code: CodeContradiction, Severity: Warning,
				Msg: fmt.Sprintf("constraints on %s are contradictory: %s", col, msg),
				Fix: "drop one of the conflicting predicates",
			})
		}
	}
	return diags
}

func flipOp(op sqlparser.BinaryOp) sqlparser.BinaryOp {
	switch op {
	case sqlparser.OpLt:
		return sqlparser.OpGt
	case sqlparser.OpLe:
		return sqlparser.OpGe
	case sqlparser.OpGt:
		return sqlparser.OpLt
	case sqlparser.OpGe:
		return sqlparser.OpLe
	}
	return op
}

// contradictionIn reports the first pair of mutually exclusive bounds.
func contradictionIn(bs []colBound) string {
	for i := 0; i < len(bs); i++ {
		for j := i + 1; j < len(bs); j++ {
			a, b := bs[i], bs[j]
			c := a.val.Compare(b.val)
			aLow, aHigh := isLowerBound(a.op), isUpperBound(a.op)
			bLow, bHigh := isLowerBound(b.op), isUpperBound(b.op)
			switch {
			case a.op == sqlparser.OpEq && b.op == sqlparser.OpEq && c != 0:
				return a.sql + " vs " + b.sql
			case a.op == sqlparser.OpEq && bLow && !satisfies(c, b.op):
				return a.sql + " vs " + b.sql
			case a.op == sqlparser.OpEq && bHigh && !satisfies(c, b.op):
				return a.sql + " vs " + b.sql
			case b.op == sqlparser.OpEq && aLow && !satisfies(-c, a.op):
				return a.sql + " vs " + b.sql
			case b.op == sqlparser.OpEq && aHigh && !satisfies(-c, a.op):
				return a.sql + " vs " + b.sql
			case aLow && bHigh && !rangeFeasible(a, b):
				return a.sql + " vs " + b.sql
			case aHigh && bLow && !rangeFeasible(b, a):
				return a.sql + " vs " + b.sql
			}
		}
	}
	return ""
}

func isLowerBound(op sqlparser.BinaryOp) bool {
	return op == sqlparser.OpGt || op == sqlparser.OpGe
}

func isUpperBound(op sqlparser.BinaryOp) bool {
	return op == sqlparser.OpLt || op == sqlparser.OpLe
}

// satisfies reports whether an equality value at comparison result c (value
// vs bound) meets the bound's operator.
func satisfies(c int, op sqlparser.BinaryOp) bool {
	switch op {
	case sqlparser.OpGt:
		return c > 0
	case sqlparser.OpGe:
		return c >= 0
	case sqlparser.OpLt:
		return c < 0
	case sqlparser.OpLe:
		return c <= 0
	}
	return true
}

// rangeFeasible reports whether lower bound lo and upper bound hi leave any
// values: lo.val < hi.val, or equal with both bounds inclusive.
func rangeFeasible(lo, hi colBound) bool {
	c := lo.val.Compare(hi.val)
	if c < 0 {
		return true
	}
	if c == 0 {
		return lo.op == sqlparser.OpGe && hi.op == sqlparser.OpLe
	}
	return false
}
