package analyzer

import (
	"fmt"

	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/sqltypes"
)

// TypePass infers operand kinds from the catalog and flags comparisons whose
// two sides can never be meaningfully compared (string vs numeric) and
// numeric aggregates applied to string columns. Inference is deliberately
// conservative: a diagnostic fires only when both kinds are statically
// certain, so valid templates never trip it.
type TypePass struct{}

// Name implements Pass.
func (TypePass) Name() string { return "types" }

// exprKind infers the kind of e within scope sc; known=false means the kind
// cannot be statically determined (placeholders, CASE, unresolved columns).
func exprKind(sc *scope, e sqlparser.Expr) (kind sqltypes.Kind, known bool) {
	switch t := e.(type) {
	case *sqlparser.Literal:
		k := t.Value.Kind()
		if k == sqltypes.KindNull {
			return 0, false
		}
		return k, true
	case *sqlparser.ColumnRef:
		_, col, st := sc.resolve(t)
		if st != resolved || col == nil {
			return 0, false
		}
		return col.Type.Kind(), true
	case *sqlparser.Placeholder:
		return 0, false
	case *sqlparser.UnaryExpr:
		if t.Op == "-" {
			return exprKind(sc, t.X)
		}
		return sqltypes.KindBool, true
	case *sqlparser.BinaryExpr:
		if t.Op.IsComparison() || t.Op == sqlparser.OpAnd || t.Op == sqlparser.OpOr {
			return sqltypes.KindBool, true
		}
		// Arithmetic: numeric when both operands are known numerics.
		lk, lok := exprKind(sc, t.L)
		rk, rok := exprKind(sc, t.R)
		if lok && rok && isNumericKind(lk) && isNumericKind(rk) {
			if lk == sqltypes.KindInt && rk == sqltypes.KindInt && t.Op != sqlparser.OpDiv {
				return sqltypes.KindInt, true
			}
			return sqltypes.KindFloat, true
		}
		return 0, false
	case *sqlparser.FuncCall:
		switch t.Name {
		case "COUNT":
			return sqltypes.KindInt, true
		case "SUM", "AVG":
			return sqltypes.KindFloat, true
		case "MIN", "MAX":
			if len(t.Args) == 1 {
				return exprKind(sc, t.Args[0])
			}
		}
		return 0, false
	case *sqlparser.InExpr, *sqlparser.ExistsExpr, *sqlparser.BetweenExpr,
		*sqlparser.LikeExpr, *sqlparser.IsNullExpr:
		return sqltypes.KindBool, true
	}
	return 0, false
}

func isNumericKind(k sqltypes.Kind) bool {
	return k == sqltypes.KindInt || k == sqltypes.KindFloat
}

// comparable reports whether two statically-known kinds can be compared.
func comparableKinds(a, b sqltypes.Kind) bool {
	if a == b {
		return true
	}
	return isNumericKind(a) && isNumericKind(b)
}

// Run implements Pass.
func (TypePass) Run(ctx *Context) []Diagnostic {
	var diags []Diagnostic
	report := func(span Span, l, r sqlparser.Expr, lk, rk sqltypes.Kind) {
		diags = append(diags, Diagnostic{
			Code: CodeComparisonTypeMismatch, Severity: Error, Span: span,
			Msg: fmt.Sprintf("cannot compare %s (%s) with %s (%s)", l.SQL(), lk, r.SQL(), rk),
			Fix: "compare the column against a value of its own type",
		})
	}
	ctx.EachSelect(func(s *sqlparser.SelectStmt, sc *scope) {
		s.EachClause(func(_ string, top sqlparser.Expr) {
			sqlparser.Walk(top, func(e sqlparser.Expr) bool {
				switch t := e.(type) {
				case *sqlparser.BinaryExpr:
					if !t.Op.IsComparison() {
						return true
					}
					lk, lok := exprKind(sc, t.L)
					rk, rok := exprKind(sc, t.R)
					if lok && rok && !comparableKinds(lk, rk) {
						report(ctx.SpanOf(t), t.L, t.R, lk, rk)
					}
				case *sqlparser.BetweenExpr:
					xk, xok := exprKind(sc, t.X)
					if !xok {
						return true
					}
					for _, bound := range []sqlparser.Expr{t.Lo, t.Hi} {
						bk, bok := exprKind(sc, bound)
						if bok && !comparableKinds(xk, bk) {
							report(ctx.SpanOf(t), t.X, bound, xk, bk)
						}
					}
				case *sqlparser.InExpr:
					xk, xok := exprKind(sc, t.X)
					if !xok {
						return true
					}
					for _, item := range t.List {
						ik, iok := exprKind(sc, item)
						if iok && !comparableKinds(xk, ik) {
							report(ctx.SpanOf(t), t.X, item, xk, ik)
						}
					}
				case *sqlparser.FuncCall:
					if (t.Name == "SUM" || t.Name == "AVG") && len(t.Args) == 1 && !t.Star {
						ak, aok := exprKind(sc, t.Args[0])
						if aok && !isNumericKind(ak) {
							diags = append(diags, Diagnostic{
								Code: CodeAggregateArgType, Severity: Error, Span: ctx.SpanOf(t),
								Msg: fmt.Sprintf("%s requires a numeric argument, got %s (%s)", t.Name, t.Args[0].SQL(), ak),
								Fix: "aggregate a numeric column, or use COUNT/MIN/MAX for strings",
							})
						}
					}
				}
				return true
			}, nil)
		})
	})
	return diags
}
