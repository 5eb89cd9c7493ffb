package exec

import (
	"math"
	"strings"

	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/sqltypes"
)

// eval evaluates an expression in the given tuple environment.
func (ex *executor) eval(e sqlparser.Expr, en *env) (sqltypes.Value, error) {
	switch t := e.(type) {
	case *sqlparser.Literal:
		if ex.bound != nil {
			if v, ok := ex.bound.LiteralValue(t); ok {
				return v, nil
			}
		}
		return t.Value, nil
	case *sqlparser.Placeholder:
		return sqltypes.Null, rtErrf("placeholder {%s} reached the executor", t.Name)
	case *sqlparser.ColumnRef:
		if ref, ok := en.q.Binding.Cols[t]; ok {
			return en.lookup(ref), nil
		}
		// Output-alias reference resolved through the alias map.
		if alias, ok := en.q.Binding.Aliases[strings.ToLower(t.Name)]; ok {
			return ex.eval(alias, en)
		}
		return sqltypes.Null, rtErrf("unresolved column %q", t.Name)
	case *sqlparser.BinaryExpr:
		return ex.evalBinary(t, en)
	case *sqlparser.UnaryExpr:
		v, err := ex.eval(t.X, en)
		if err != nil {
			return sqltypes.Null, err
		}
		if t.Op == "NOT" {
			if v.IsNull() {
				return sqltypes.Null, nil
			}
			return sqltypes.NewBool(!v.Bool()), nil
		}
		return v.Neg(), nil
	case *sqlparser.FuncCall:
		if t.IsAggregate() {
			if en.aggs != nil {
				if v, ok := en.aggs[t]; ok {
					return v, nil
				}
			}
			return sqltypes.Null, rtErrf("aggregate %s evaluated outside aggregation context", t.Name)
		}
		return ex.evalScalarFunc(t, en)
	case *sqlparser.CaseExpr:
		for _, w := range t.Whens {
			c, err := ex.eval(w.Cond, en)
			if err != nil {
				return sqltypes.Null, err
			}
			if c.Bool() {
				return ex.eval(w.Result, en)
			}
		}
		if t.Else != nil {
			return ex.eval(t.Else, en)
		}
		return sqltypes.Null, nil
	case *sqlparser.BetweenExpr:
		x, err := ex.eval(t.X, en)
		if err != nil {
			return sqltypes.Null, err
		}
		lo, err := ex.eval(t.Lo, en)
		if err != nil {
			return sqltypes.Null, err
		}
		hi, err := ex.eval(t.Hi, en)
		if err != nil {
			return sqltypes.Null, err
		}
		if x.IsNull() || lo.IsNull() || hi.IsNull() {
			return sqltypes.Null, nil
		}
		in := x.Compare(lo) >= 0 && x.Compare(hi) <= 0
		return sqltypes.NewBool(in != t.Not), nil
	case *sqlparser.LikeExpr:
		x, err := ex.eval(t.X, en)
		if err != nil {
			return sqltypes.Null, err
		}
		p, err := ex.eval(t.Pattern, en)
		if err != nil {
			return sqltypes.Null, err
		}
		if x.IsNull() || p.IsNull() {
			return sqltypes.Null, nil
		}
		m := likeMatch(x.String(), p.String())
		return sqltypes.NewBool(m != t.Not), nil
	case *sqlparser.IsNullExpr:
		x, err := ex.eval(t.X, en)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewBool(x.IsNull() != t.Not), nil
	case *sqlparser.InExpr:
		return ex.evalIn(t, en)
	case *sqlparser.ExistsExpr:
		res, _, err := ex.runSub(t.Sub, en)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewBool((len(res.Rows) > 0) != t.Not), nil
	case *sqlparser.SubqueryExpr:
		res, _, err := ex.runSub(t.Sub, en)
		if err != nil {
			return sqltypes.Null, err
		}
		if len(res.Rows) == 0 || len(res.Rows[0]) == 0 {
			return sqltypes.Null, nil
		}
		if len(res.Rows) > 1 {
			return sqltypes.Null, rtErrf("scalar subquery returned more than one row")
		}
		return res.Rows[0][0], nil
	}
	return sqltypes.Null, rtErrf("unsupported expression %T", e)
}

func (ex *executor) evalBinary(t *sqlparser.BinaryExpr, en *env) (sqltypes.Value, error) {
	switch t.Op {
	case sqlparser.OpAnd:
		l, err := ex.eval(t.L, en)
		if err != nil {
			return sqltypes.Null, err
		}
		if !l.IsNull() && !l.Bool() {
			return sqltypes.NewBool(false), nil
		}
		r, err := ex.eval(t.R, en)
		if err != nil {
			return sqltypes.Null, err
		}
		if !r.IsNull() && !r.Bool() {
			return sqltypes.NewBool(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(true), nil
	case sqlparser.OpOr:
		l, err := ex.eval(t.L, en)
		if err != nil {
			return sqltypes.Null, err
		}
		if !l.IsNull() && l.Bool() {
			return sqltypes.NewBool(true), nil
		}
		r, err := ex.eval(t.R, en)
		if err != nil {
			return sqltypes.Null, err
		}
		if !r.IsNull() && r.Bool() {
			return sqltypes.NewBool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(false), nil
	}
	l, err := ex.eval(t.L, en)
	if err != nil {
		return sqltypes.Null, err
	}
	r, err := ex.eval(t.R, en)
	if err != nil {
		return sqltypes.Null, err
	}
	if t.Op.IsComparison() {
		if l.IsNull() || r.IsNull() {
			return sqltypes.Null, nil
		}
		c := l.Compare(r)
		var b bool
		switch t.Op {
		case sqlparser.OpEq:
			b = c == 0
		case sqlparser.OpNe:
			b = c != 0
		case sqlparser.OpLt:
			b = c < 0
		case sqlparser.OpLe:
			b = c <= 0
		case sqlparser.OpGt:
			b = c > 0
		case sqlparser.OpGe:
			b = c >= 0
		}
		return sqltypes.NewBool(b), nil
	}
	switch t.Op {
	case sqlparser.OpAdd:
		return l.Add(r), nil
	case sqlparser.OpSub:
		return l.Sub(r), nil
	case sqlparser.OpMul:
		return l.Mul(r), nil
	case sqlparser.OpDiv:
		return l.Div(r), nil
	case sqlparser.OpMod:
		return l.Mod(r), nil
	}
	return sqltypes.Null, rtErrf("unsupported operator %s", t.Op)
}

func (ex *executor) evalIn(t *sqlparser.InExpr, en *env) (sqltypes.Value, error) {
	x, err := ex.eval(t.X, en)
	if err != nil {
		return sqltypes.Null, err
	}
	if x.IsNull() {
		return sqltypes.Null, nil
	}
	if t.Sub != nil {
		found, err := ex.inSub(t.Sub, x, en)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewBool(found != t.Not), nil
	}
	for _, item := range t.List {
		v, err := ex.eval(item, en)
		if err != nil {
			return sqltypes.Null, err
		}
		if x.Equal(v) {
			return sqltypes.NewBool(!t.Not), nil
		}
	}
	return sqltypes.NewBool(t.Not), nil
}

// evalScalarFunc implements the non-aggregate builtins.
func (ex *executor) evalScalarFunc(t *sqlparser.FuncCall, en *env) (sqltypes.Value, error) {
	var buf [4]sqltypes.Value
	args := buf[:0]
	for _, a := range t.Args {
		v, err := ex.eval(a, en)
		if err != nil {
			return sqltypes.Null, err
		}
		args = append(args, v)
	}
	switch t.Name {
	case "ABS":
		if len(args) == 1 && args[0].IsNumeric() {
			if args[0].Float() < 0 {
				return args[0].Neg(), nil
			}
			return args[0], nil
		}
	case "ROUND":
		if len(args) >= 1 && args[0].IsNumeric() {
			f := args[0].Float()
			if f < 0 {
				return sqltypes.NewFloat(float64(int64(f - 0.5))), nil
			}
			return sqltypes.NewFloat(float64(int64(f + 0.5))), nil
		}
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return sqltypes.Null, nil
	case "LENGTH":
		if len(args) == 1 {
			return sqltypes.NewInt(int64(len(args[0].String()))), nil
		}
	case "UPPER":
		if len(args) == 1 {
			return sqltypes.NewString(strings.ToUpper(args[0].String())), nil
		}
	case "LOWER":
		if len(args) == 1 {
			return sqltypes.NewString(strings.ToLower(args[0].String())), nil
		}
	}
	return sqltypes.Null, rtErrf("function %q does not exist", t.Name)
}

// cachedSub is an uncorrelated subquery's result, kept for the lifetime of
// the outer statement, plus the hash set of its first column once an IN
// predicate has asked for one.
type cachedSub struct {
	res *Result
	// set indexes res.Rows by first-column value; nil until first built, and
	// for good when a member is NaN (noSet).
	set   *hashIndex
	noSet bool
}

// runSub executes a nested SELECT. An uncorrelated subquery (a plan-time
// fact, plan.Query.Correlated) runs once per statement and also returns its
// cache entry; a correlated one reruns for every outer row and returns a nil
// entry.
func (ex *executor) runSub(sub *sqlparser.SelectStmt, en *env) (*Result, *cachedSub, error) {
	sq, ok := en.q.Subplans[sub]
	if !ok {
		return nil, nil, rtErrf("subquery was not planned")
	}
	if !sq.Correlated {
		if cs, ok := ex.subCache[sub]; ok {
			return cs.res, cs, nil
		}
	}
	res, err := ex.runQuery(sq, en)
	if err != nil {
		return nil, nil, err
	}
	if sq.Correlated {
		return res, nil, nil
	}
	if ex.subCache == nil {
		ex.subCache = map[*sqlparser.SelectStmt]*cachedSub{}
	}
	cs := &cachedSub{res: res}
	ex.subCache[sub] = cs
	return res, cs, nil
}

// inSub reports whether non-NULL x equals the first column of some row of the
// subquery's result. An uncorrelated subquery answers from its hash set; the
// answer is exactly that of the linear x.Equal(r[0]) scan, which correlated
// subqueries keep, as do lookups the set cannot answer.
func (ex *executor) inSub(sub *sqlparser.SelectStmt, x sqltypes.Value, en *env) (bool, error) {
	res, cs, err := ex.runSub(sub, en)
	if err != nil {
		return false, err
	}
	if cs != nil {
		if found, ok := cs.lookup(ex.ar, x); ok {
			return found, nil
		}
	}
	for _, r := range res.Rows {
		if len(r) > 0 && x.Equal(r[0]) {
			return true, nil
		}
	}
	return false, nil
}

// lookup answers "x equals some member" from the hash set, building it on
// first use. ok is false where hashing cannot agree with Compare, which makes
// NaN equal to every number: for a NaN x, and for good once a member is NaN.
func (cs *cachedSub) lookup(ar *Arena, x sqltypes.Value) (found, ok bool) {
	if cs.noSet || isNaN(x) {
		return false, false
	}
	rows := cs.res.Rows
	if cs.set == nil {
		for _, r := range rows {
			if len(r) > 0 && isNaN(r[0]) {
				cs.noSet = true
				return false, false
			}
		}
		cs.set = ar.buildIndex(rows, nil, 0)
	}
	for p := cs.set.head[x.Hash()]; p != 0; p = cs.set.next[p-1] {
		if x.Equal(rows[p-1][0]) {
			return true, true
		}
	}
	return false, true
}

func isNaN(v sqltypes.Value) bool {
	return v.Kind() == sqltypes.KindFloat && math.IsNaN(v.Float())
}

// likeMatch implements SQL LIKE with % and _ wildcards.
func likeMatch(s, pattern string) bool {
	return likeRec(s, pattern)
}

func likeRec(s, p string) bool {
	if p == "" {
		return s == ""
	}
	switch p[0] {
	case '%':
		for i := 0; i <= len(s); i++ {
			if likeRec(s[i:], p[1:]) {
				return true
			}
		}
		return false
	case '_':
		if s == "" {
			return false
		}
		return likeRec(s[1:], p[1:])
	default:
		if s == "" || s[0] != p[0] {
			return false
		}
		return likeRec(s[1:], p[1:])
	}
}
