package exec

import (
	"cmp"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/plan"
	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/sqltypes"
)

// pred compiles a condition of this level to a three-valued predicate.
// Anything that is not a boolean operator is evaluated as a value and read
// through truth.
func (lv *level) pred(x sqlparser.Expr) pred {
	switch t := x.(type) {
	case *sqlparser.BinaryExpr:
		switch {
		case t.Op == sqlparser.OpAnd:
			return and(lv.pred(t.L), lv.pred(t.R))
		case t.Op == sqlparser.OpOr:
			return or(lv.pred(t.L), lv.pred(t.R))
		case t.Op.IsComparison():
			return lv.compare(t)
		}
	case *sqlparser.UnaryExpr:
		if t.Op == "NOT" {
			p := lv.pred(t.X)
			return func(ex *executor, e *env) (tri, error) {
				v, err := p(ex, e)
				switch {
				case err != nil || v == triNull:
					return triNull, err
				case v == triTrue:
					return triFalse, nil
				}
				return triTrue, nil
			}
		}
	case *sqlparser.BetweenExpr:
		return lv.between(t)
	case *sqlparser.LikeExpr:
		return lv.like(t)
	case *sqlparser.IsNullExpr:
		v, not := lv.expr(t.X), t.Not
		return func(ex *executor, e *env) (tri, error) {
			x, err := v(ex, e)
			return triOf(x.IsNull() != not), err
		}
	case *sqlparser.InExpr:
		if t.Sub != nil {
			return lv.inSub(t)
		}
		return lv.inList(t)
	case *sqlparser.ExistsExpr:
		sp := lv.subs[t.Sub]
		if sp == nil {
			return lv.errPred(rtErrf("subquery was not planned"))
		}
		lv.fallible()
		not := t.Not
		return func(ex *executor, e *env) (tri, error) {
			res, _, err := ex.runSub(sp, e)
			if err != nil {
				return triNull, err
			}
			return triOf((len(res.Rows) > 0) != not), nil
		}
	}
	v := lv.expr(x)
	return func(ex *executor, e *env) (tri, error) {
		x, err := v(ex, e)
		return truth(x), err
	}
}

func (lv *level) errPred(err error) pred {
	lv.fallible()
	return func(*executor, *env) (tri, error) { return triNull, err }
}

// and is SQL AND: false wins over unknown, and R is not evaluated once L is
// false.
func and(l, r pred) pred {
	return func(ex *executor, e *env) (tri, error) {
		a, err := l(ex, e)
		if err != nil || a == triFalse {
			return triFalse, err
		}
		b, err := r(ex, e)
		if err != nil || b == triFalse {
			return triFalse, err
		}
		if a == triNull || b == triNull {
			return triNull, nil
		}
		return triTrue, nil
	}
}

// or is SQL OR: true wins over unknown, and R is not evaluated once L is
// true.
func or(l, r pred) pred {
	return func(ex *executor, e *env) (tri, error) {
		a, err := l(ex, e)
		if err != nil || a == triTrue {
			return triTrue, err
		}
		b, err := r(ex, e)
		if err != nil || b == triTrue {
			return triTrue, err
		}
		if a == triNull || b == triNull {
			return triNull, nil
		}
		return triFalse, nil
	}
}

// cmpMask is a comparison operator as the set of Compare outcomes it
// accepts: bit 0 less, bit 1 equal, bit 2 greater.
type cmpMask uint8

const (
	cmpLt cmpMask = 1 << iota
	cmpEq
	cmpGt
)

var cmpMasks = [...]cmpMask{
	sqlparser.OpEq: cmpEq, sqlparser.OpNe: cmpLt | cmpGt,
	sqlparser.OpLt: cmpLt, sqlparser.OpLe: cmpLt | cmpEq,
	sqlparser.OpGt: cmpGt, sqlparser.OpGe: cmpGt | cmpEq,
}

// flip is the mask of the mirrored comparison: a op b is b flip(op) a.
func (m cmpMask) flip() cmpMask {
	return m&cmpEq | (m&cmpLt)<<2 | (m&cmpGt)>>2
}

// order reports whether a <m> b for two payloads of one type. Floats
// compare as Value.Compare does: a NaN is neither less nor greater, so it
// tests as equal.
func order[T cmp.Ordered](m cmpMask, a, b T) tri {
	switch {
	case a < b:
		return triOf(m&cmpLt != 0)
	case a > b:
		return triOf(m&cmpGt != 0)
	}
	return triOf(m&cmpEq != 0)
}

// values is the general comparison: unknown when either side is NULL.
func (m cmpMask) values(a, b sqltypes.Value) tri {
	if a.IsNull() || b.IsNull() {
		return triNull
	}
	return order(m, a.Compare(b), 0)
}

// compare compiles a comparison. `column <op> literal-or-slot` (either way
// round) fuses the column read, the operand and a compare typed by the
// column's catalog type into one predicate.
func (lv *level) compare(t *sqlparser.BinaryExpr) pred {
	m := cmpMasks[t.Op]
	if ref, typ, ok := lv.levelColumn(t.L); ok {
		if k, ok := lv.operand(t.R); ok {
			return colCompare(ref, typ, k, m)
		}
	}
	if ref, typ, ok := lv.levelColumn(t.R); ok {
		if k, ok := lv.operand(t.L); ok {
			return colCompare(ref, typ, k, m.flip())
		}
	}
	l, r := lv.expr(t.L), lv.expr(t.R)
	return func(ex *executor, e *env) (tri, error) {
		a, err := l(ex, e)
		if err != nil {
			return triNull, err
		}
		b, err := r(ex, e)
		if err != nil {
			return triNull, err
		}
		return m.values(a, b), nil
	}
}

// colCompare is `column <m> k` for a current-level column. The typed branch
// compares the payload in the column's vector with k's when the stored
// column has the catalog's kind and k a kind the branch compares; anything
// else (a NULL, an off-kind operand, a mixed int/float pair) goes through
// Value.Compare, so the result is always exactly Compare's.
func colCompare(ref plan.ColRef, typ catalog.ColumnType, k operand, m cmpMask) pred {
	t, c := ref.TableIdx, ref.ColIdx
	switch typ {
	case catalog.TypeInt:
		return func(ex *executor, e *env) (tri, error) {
			ri := e.rows[t]
			if ri < 0 {
				return triNull, nil
			}
			col, w := &e.tabs[t].Cols[c], k.get(ex)
			if col.Kind == sqltypes.KindInt && w.Kind() == sqltypes.KindInt && !col.Null(int(ri)) {
				return order(m, col.Ints[ri], w.Int()), nil
			}
			return m.values(col.Value(int(ri)), w), nil
		}
	case catalog.TypeFloat:
		return func(ex *executor, e *env) (tri, error) {
			ri := e.rows[t]
			if ri < 0 {
				return triNull, nil
			}
			col, w := &e.tabs[t].Cols[c], k.get(ex)
			if col.Kind == sqltypes.KindFloat && w.IsNumeric() && !col.Null(int(ri)) {
				return order(m, col.Floats[ri], w.Float()), nil
			}
			return m.values(col.Value(int(ri)), w), nil
		}
	}
	return func(ex *executor, e *env) (tri, error) {
		ri := e.rows[t]
		if ri < 0 {
			return triNull, nil
		}
		col, w := &e.tabs[t].Cols[c], k.get(ex)
		if col.Kind == sqltypes.KindString && w.Kind() == sqltypes.KindString && !col.Null(int(ri)) {
			return order(m, col.Strs[ri], w.Str()), nil
		}
		return m.values(col.Value(int(ri)), w), nil
	}
}

func (lv *level) between(t *sqlparser.BetweenExpr) pred {
	x, lo, hi, not := lv.expr(t.X), lv.expr(t.Lo), lv.expr(t.Hi), t.Not
	return func(ex *executor, e *env) (tri, error) {
		v, err := x(ex, e)
		if err != nil {
			return triNull, err
		}
		a, err := lo(ex, e)
		if err != nil {
			return triNull, err
		}
		b, err := hi(ex, e)
		if err != nil {
			return triNull, err
		}
		if v.IsNull() || a.IsNull() || b.IsNull() {
			return triNull, nil
		}
		return triOf((v.Compare(a) >= 0 && v.Compare(b) <= 0) != not), nil
	}
}

func (lv *level) like(t *sqlparser.LikeExpr) pred {
	x, pat, not := lv.expr(t.X), lv.expr(t.Pattern), t.Not
	return func(ex *executor, e *env) (tri, error) {
		v, err := x(ex, e)
		if err != nil {
			return triNull, err
		}
		p, err := pat(ex, e)
		if err != nil {
			return triNull, err
		}
		if v.IsNull() || p.IsNull() {
			return triNull, nil
		}
		return triOf(likeMatch(v.String(), p.String()) != not), nil
	}
}

// inList is `x [NOT] IN (list)`: unknown for a NULL x, otherwise whether
// some item equals x (a NULL item never does).
func (lv *level) inList(t *sqlparser.InExpr) pred {
	x, not := lv.expr(t.X), t.Not
	items := make([]expr, len(t.List))
	for i, it := range t.List {
		items[i] = lv.expr(it)
	}
	return func(ex *executor, e *env) (tri, error) {
		v, err := x(ex, e)
		if err != nil || v.IsNull() {
			return triNull, err
		}
		for _, it := range items {
			w, err := it(ex, e)
			if err != nil {
				return triNull, err
			}
			if v.Equal(w) {
				return triOf(!not), nil
			}
		}
		return triOf(not), nil
	}
}

// inSub is `x [NOT] IN (subquery)`: unknown for a NULL x, otherwise whether
// x equals the first column of some result row. An uncorrelated subquery
// answers from its cached hash set; the answer is exactly that of the
// linear x.Equal(r[0]) scan, which correlated subqueries keep, as do lookups
// the set cannot answer.
func (lv *level) inSub(t *sqlparser.InExpr) pred {
	sp := lv.subs[t.Sub]
	if sp == nil {
		return lv.errPred(rtErrf("subquery was not planned"))
	}
	lv.fallible()
	x, not := lv.expr(t.X), t.Not
	return func(ex *executor, e *env) (tri, error) {
		v, err := x(ex, e)
		if err != nil || v.IsNull() {
			return triNull, err
		}
		res, cs, err := ex.runSub(sp, e)
		if err != nil {
			return triNull, err
		}
		if cs != nil {
			if found, ok := cs.lookup(ex.ar, v); ok {
				return triOf(found != not), nil
			}
		}
		for _, r := range res.Rows {
			if len(r) > 0 && v.Equal(r[0]) {
				return triOf(!not), nil
			}
		}
		return triOf(not), nil
	}
}

// likeMatch implements SQL LIKE with % and _ wildcards, byte-wise. It scans
// once, remembering the last % seen: on a mismatch it retries that % one
// byte further along the string. Every earlier % is already satisfied by
// then, so the match takes O(len(s)·len(p)) steps however many % the
// pattern holds.
func likeMatch(s, p string) bool {
	si, pi := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && p[pi] == '%':
			star, mark = pi, si
			pi++
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case star >= 0:
			mark++
			si, pi = mark, star+1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
