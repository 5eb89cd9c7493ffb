package exec

import (
	"strings"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/plan"
	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/sqltypes"
)

// Program is a plan.Query tree compiled once for execution. Everything the
// old per-row AST interpreter looked up on every tuple is resolved here:
// each column reference becomes a (level, table instance, column) read,
// each parameter slot a fixed index into the bound parameter vector, each
// aggregate call a function code and a position among its level's group
// results, and each subquery a compiled sub-program. Conditions compile to
// three-valued predicates, and `column <op> constant-or-slot` to a fused
// predicate with an int, float or string compare where the catalog fixes the
// column's type (other kinds fall back to Value.Compare, so an off-kind value
// still compares exactly as before).
//
// A Program is immutable after Compile: any number of goroutines may Run it
// concurrently, each with its own parameter vector and arena. Errors the
// interpreter raised while evaluating (an unknown function, an unresolved
// column, a scalar subquery with two rows) are compiled into the expression
// and still surface only when, and if, it is evaluated. The compiler counts
// every closure it builds that can return an error or run a subquery (see
// level.fallible), which tells Program.Probe what it may leave unevaluated.
type Program struct {
	root *prog
	// nCache is the number of uncorrelated subqueries in the tree; each owns
	// one result-cache slot per run.
	nCache int
}

// prog is one query level of a Program.
type prog struct {
	n        int      // table instances
	tables   []string // stored table of each instance
	filters  [][]pred // pushed-down WHERE conjuncts per instance
	joins    []joinProg
	residual []pred

	// inertResidual and inertOutput record that no closure of the residual
	// conjuncts, or of the output phase (GROUP BY keys, aggregate arguments,
	// HAVING, select items and ORDER BY keys, with no SELECT * under
	// aggregation), can return an error or run a subquery: evaluating them
	// changes neither a run's error nor its RowsTouched. Program.Probe reads
	// them at the root.
	inertResidual bool
	inertOutput   bool

	aggregated bool
	groupBy    []expr
	aggs       []aggCall
	having     pred // nil when absent

	items     []expr
	columns   []string
	starAgg   bool // SELECT * in an aggregated query: a runtime error
	orderKeys []expr
	orderBy   []sqlparser.OrderItem
	distinct  bool
	limit     int

	// cache is the result-cache slot of an uncorrelated subquery, -1 for the
	// root and for correlated subqueries (which rerun per outer row).
	cache int
}

// joinProg is one compiled JOIN clause. An equi-join hashes the right
// instance's column rc and probes it with column lc of instance lt.
type joinProg struct {
	left   bool
	equi   bool
	lt, lc int
	rc     int
	extra  []pred
}

// expr is a compiled scalar expression over the tuple environment and the
// executor's bound parameter vector.
type expr func(ex *executor, e *env) (sqltypes.Value, error)

// tri is SQL's three-valued truth.
type tri uint8

const (
	triFalse tri = iota
	triTrue
	triNull
)

// pred is a compiled condition: WHERE, ON, residual and HAVING conjuncts,
// CASE arms, and the boolean operators inside expressions.
type pred func(ex *executor, e *env) (tri, error)

// truth is the condition value of v: NULL is unknown, and only a true
// boolean is true (an integer 1 is not).
func truth(v sqltypes.Value) tri {
	switch {
	case v.IsNull():
		return triNull
	case v.Bool():
		return triTrue
	}
	return triFalse
}

func triOf(b bool) tri {
	if b {
		return triTrue
	}
	return triFalse
}

// value boxes a truth as the SQL value the interpreter produced.
func (t tri) value() sqltypes.Value {
	if t == triNull {
		return sqltypes.Null
	}
	return sqltypes.NewBool(t == triTrue)
}

// Compile builds the executor program of q and its subplans. slot resolves a
// literal that is a parameter slot to its index in the bound parameter
// vector (plan.CompiledQuery.Slot); nil means q has no slots.
func Compile(q *plan.Query, slot func(*sqlparser.Literal) (int, bool)) *Program {
	if slot == nil {
		slot = func(*sqlparser.Literal) (int, bool) { return 0, false }
	}
	c := &compiler{slot: slot}
	root := c.query(q)
	root.cache = -1
	return &Program{root: root, nCache: c.nCache}
}

// compiler is the state of one Compile call.
type compiler struct {
	slot   func(*sqlparser.Literal) (int, bool)
	nCache int
	// fallible counts the closures built so far that can return an error or
	// run a subquery.
	fallible int
}

// level is the compile-time scope of one query level.
type level struct {
	c    *compiler
	q    *plan.Query
	subs map[*sqlparser.SelectStmt]*prog
	// aggPos maps each outermost aggregate call of SELECT, HAVING and ORDER
	// BY to its position among the group results; nil for a level that does
	// not aggregate.
	aggPos map[*sqlparser.FuncCall]int
	// grouped is set while compiling the HAVING, select items and ORDER BY
	// of an aggregating level, where the group results are bound.
	grouped bool
}

func (c *compiler) query(q *plan.Query) *prog {
	lv := &level{c: c, q: q, subs: map[*sqlparser.SelectStmt]*prog{}}
	for _, sub := range q.Stmt.DirectSubqueries() {
		sq, ok := q.Subplans[sub]
		if !ok {
			continue
		}
		sp := c.query(sq)
		sp.cache = -1
		if !sq.Correlated {
			sp.cache = c.nCache
			c.nCache++
		}
		lv.subs[sub] = sp
	}
	stmt := q.Stmt
	scope := q.Binding.Scope
	p := &prog{
		n:          len(scope.Tables),
		aggregated: q.Aggregated,
		distinct:   stmt.Distinct,
		limit:      stmt.Limit,
		orderBy:    stmt.OrderBy,
	}
	for _, inst := range scope.Tables {
		p.tables = append(p.tables, inst.Table.Name)
	}
	p.filters = make([][]pred, p.n)
	for i, fs := range q.ScanFilters {
		p.filters[i] = lv.preds(fs)
	}
	for ji, j := range stmt.Joins {
		jp := joinProg{left: j.Type == sqlparser.JoinLeft, extra: lv.preds(q.JoinExtra[ji])}
		if ek := q.JoinEqui[ji]; ek != nil {
			l, r := q.Binding.Cols[ek.Left], q.Binding.Cols[ek.Right]
			jp.equi, jp.lt, jp.lc, jp.rc = true, l.TableIdx, l.ColIdx, r.ColIdx
		}
		p.joins = append(p.joins, jp)
	}
	mark := c.fallible
	p.residual = lv.preds(q.Residual)
	p.inertResidual = c.fallible == mark
	mark = c.fallible
	if q.Aggregated {
		lv.collectAggs(p)
		for _, g := range stmt.GroupBy {
			p.groupBy = append(p.groupBy, lv.expr(g))
		}
		lv.grouped = true
		if stmt.Having != nil {
			p.having = lv.pred(stmt.Having)
		}
	}
	for _, it := range stmt.Items {
		if it.Star {
			p.starAgg = p.starAgg || q.Aggregated
			for ti, inst := range scope.Tables {
				for ci, col := range inst.Table.Columns {
					p.columns = append(p.columns, col.Name)
					p.items = append(p.items, lv.column(plan.ColRef{TableIdx: ti, ColIdx: ci}))
				}
			}
			continue
		}
		switch cr, isCol := it.Expr.(*sqlparser.ColumnRef); {
		case it.Alias != "":
			p.columns = append(p.columns, it.Alias)
		case isCol:
			p.columns = append(p.columns, cr.Name)
		default:
			p.columns = append(p.columns, it.Expr.SQL())
		}
		p.items = append(p.items, lv.expr(it.Expr))
	}
	for _, o := range stmt.OrderBy {
		p.orderKeys = append(p.orderKeys, lv.expr(o.Expr))
	}
	p.inertOutput = c.fallible == mark && !p.starAgg
	return p
}

// fallible records that the closure being built can return an error or run
// a subquery.
func (lv *level) fallible() { lv.c.fallible++ }

// collectAggs resolves the outermost aggregate calls of the select list,
// HAVING and ORDER BY, in that order, to function codes and positions.
func (lv *level) collectAggs(p *prog) {
	lv.aggPos = map[*sqlparser.FuncCall]int{}
	var calls []*sqlparser.FuncCall
	collect := func(x sqlparser.Expr) bool {
		f, ok := x.(*sqlparser.FuncCall)
		if ok && f.IsAggregate() {
			calls = append(calls, f)
			return false
		}
		return true
	}
	lv.q.Stmt.EachClause(func(clause string, x sqlparser.Expr) {
		if clause == "SELECT" || clause == "HAVING" || clause == "ORDER BY" {
			sqlparser.Walk(x, collect, nil)
		}
	})
	for i, f := range calls {
		lv.aggPos[f] = i
		ac := aggCall{fn: aggFuncs[f.Name], star: f.Star, distinct: f.Distinct}
		if !f.Star {
			// The parser accepts SUM(): a call with no argument has
			// nothing to accumulate, so reaching one is an error.
			if len(f.Args) == 0 {
				ac.arg = lv.errExpr(rtErrf("aggregate %s has no argument", f.Name))
			} else {
				ac.arg = lv.expr(f.Args[0])
			}
		}
		p.aggs = append(p.aggs, ac)
	}
}

func (lv *level) preds(cs []sqlparser.Expr) []pred {
	if len(cs) == 0 {
		return nil
	}
	out := make([]pred, len(cs))
	for i, c := range cs {
		out[i] = lv.pred(c)
	}
	return out
}

func (lv *level) errExpr(err error) expr {
	lv.fallible()
	return func(*executor, *env) (sqltypes.Value, error) { return sqltypes.Null, err }
}

// constExpr returns v on every evaluation.
func constExpr(v sqltypes.Value) expr {
	return func(*executor, *env) (sqltypes.Value, error) { return v, nil }
}

// boxed turns a condition into the value expression the interpreter gave it.
func boxed(p pred) expr {
	return func(ex *executor, e *env) (sqltypes.Value, error) {
		t, err := p(ex, e)
		return t.value(), err
	}
}

// expr compiles a scalar expression of this level.
func (lv *level) expr(x sqlparser.Expr) expr {
	switch t := x.(type) {
	case *sqlparser.Literal:
		if k, ok := lv.operand(t); ok {
			if k.slot < 0 {
				return constExpr(k.v)
			}
			i := k.slot
			return func(ex *executor, _ *env) (sqltypes.Value, error) { return ex.params[i], nil }
		}
	case *sqlparser.Placeholder:
		return lv.errExpr(rtErrf("placeholder {%s} reached the executor", t.Name))
	case *sqlparser.ColumnRef:
		if ref, ok := lv.q.Binding.Cols[t]; ok {
			return lv.column(ref)
		}
		// Output-alias reference, compiled as the aliased expression. The
		// binder resolves every column of a select item, so the expansion
		// never meets another alias.
		if alias, ok := lv.q.Binding.Aliases[strings.ToLower(t.Name)]; ok {
			return lv.expr(alias)
		}
		return lv.errExpr(rtErrf("unresolved column %q", t.Name))
	case *sqlparser.BinaryExpr:
		if t.Op == sqlparser.OpAnd || t.Op == sqlparser.OpOr || t.Op.IsComparison() {
			return boxed(lv.pred(t))
		}
		return lv.arith(t)
	case *sqlparser.UnaryExpr:
		if t.Op == "NOT" {
			return boxed(lv.pred(t))
		}
		v := lv.expr(t.X)
		return func(ex *executor, e *env) (sqltypes.Value, error) {
			x, err := v(ex, e)
			return x.Neg(), err
		}
	case *sqlparser.FuncCall:
		if t.IsAggregate() {
			return lv.aggRef(t)
		}
		return lv.scalarFunc(t)
	case *sqlparser.CaseExpr:
		return lv.caseExpr(t)
	case *sqlparser.BetweenExpr, *sqlparser.LikeExpr, *sqlparser.IsNullExpr,
		*sqlparser.InExpr, *sqlparser.ExistsExpr:
		return boxed(lv.pred(t))
	case *sqlparser.SubqueryExpr:
		sp := lv.subs[t.Sub]
		if sp == nil {
			return lv.errExpr(rtErrf("subquery was not planned"))
		}
		lv.fallible()
		return func(ex *executor, e *env) (sqltypes.Value, error) {
			res, _, err := ex.runSub(sp, e)
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
	}
	return lv.errExpr(rtErrf("unsupported expression %T", x))
}

// column compiles a read of a resolved column. A current-level read loads
// the bound row from the instance's column vector; an outer-level one walks
// the environment chain first.
func (lv *level) column(ref plan.ColRef) expr {
	t, c := ref.TableIdx, ref.ColIdx
	if ref.Level == 0 {
		return func(_ *executor, e *env) (sqltypes.Value, error) {
			if ri := e.rows[t]; ri >= 0 {
				return e.tabs[t].Cols[c].Value(int(ri)), nil
			}
			return sqltypes.Null, nil
		}
	}
	return func(_ *executor, e *env) (sqltypes.Value, error) { return e.lookup(ref), nil }
}

func (e *env) lookup(ref plan.ColRef) sqltypes.Value {
	cur := e
	for l := 0; l < ref.Level; l++ {
		if cur.parent == nil {
			return sqltypes.Null
		}
		cur = cur.parent
	}
	if ref.TableIdx >= len(cur.rows) || cur.rows[ref.TableIdx] < 0 {
		return sqltypes.Null
	}
	return cur.tabs[ref.TableIdx].Cols[ref.ColIdx].Value(int(cur.rows[ref.TableIdx]))
}

// operand is a compile-time value source: a constant, or (slot >= 0) one
// entry of the bound parameter vector.
type operand struct {
	slot int
	v    sqltypes.Value
}

func (o *operand) get(ex *executor) sqltypes.Value {
	if o.slot >= 0 {
		return ex.params[o.slot]
	}
	return o.v
}

// operand reports whether x is a literal, resolving a parameter slot.
func (lv *level) operand(x sqlparser.Expr) (operand, bool) {
	lit, ok := x.(*sqlparser.Literal)
	if !ok {
		return operand{}, false
	}
	if i, ok := lv.c.slot(lit); ok {
		return operand{slot: i}, true
	}
	return operand{slot: -1, v: lit.Value}, true
}

// levelColumn reports the current-level column x reads, with its catalog
// type.
func (lv *level) levelColumn(x sqlparser.Expr) (plan.ColRef, catalog.ColumnType, bool) {
	cr, ok := x.(*sqlparser.ColumnRef)
	if !ok {
		return plan.ColRef{}, 0, false
	}
	ref, ok := lv.q.Binding.Cols[cr]
	if !ok || ref.Level != 0 {
		return plan.ColRef{}, 0, false
	}
	return ref, lv.q.Binding.Scope.Tables[ref.TableIdx].Table.Columns[ref.ColIdx].Type, true
}

func (lv *level) arith(t *sqlparser.BinaryExpr) expr {
	l, r := lv.expr(t.L), lv.expr(t.R)
	var op func(a, b sqltypes.Value) sqltypes.Value
	switch t.Op {
	case sqlparser.OpAdd:
		op = sqltypes.Value.Add
	case sqlparser.OpSub:
		op = sqltypes.Value.Sub
	case sqlparser.OpMul:
		op = sqltypes.Value.Mul
	case sqlparser.OpDiv:
		op = sqltypes.Value.Div
	case sqlparser.OpMod:
		op = sqltypes.Value.Mod
	default:
		lv.fallible()
	}
	unsupported := rtErrf("unsupported operator %s", t.Op)
	return func(ex *executor, e *env) (sqltypes.Value, error) {
		a, err := l(ex, e)
		if err != nil {
			return sqltypes.Null, err
		}
		b, err := r(ex, e)
		if err != nil {
			return sqltypes.Null, err
		}
		if op == nil {
			return sqltypes.Null, unsupported
		}
		return op(a, b), nil
	}
}

// aggRef compiles a reference to an aggregate call's group result. Only a
// collected call of an aggregating level has one, and only once its group
// is computed; anywhere else the call is an error, as in the interpreter.
// A reference compiled outside the grouped clauses (GROUP BY through an
// alias, an aggregate argument) is evaluated before the group results
// exist, so it may fail.
func (lv *level) aggRef(f *sqlparser.FuncCall) expr {
	pos, ok := lv.aggPos[f]
	outside := rtErrf("aggregate %s evaluated outside aggregation context", f.Name)
	if !ok {
		return lv.errExpr(outside)
	}
	if !lv.grouped {
		lv.fallible()
	}
	return func(_ *executor, e *env) (sqltypes.Value, error) {
		if e.aggs == nil {
			return sqltypes.Null, outside
		}
		return e.aggs[pos], nil
	}
}

func (lv *level) caseExpr(t *sqlparser.CaseExpr) expr {
	conds := make([]pred, len(t.Whens))
	results := make([]expr, len(t.Whens))
	for i, w := range t.Whens {
		conds[i], results[i] = lv.pred(w.Cond), lv.expr(w.Result)
	}
	els := constExpr(sqltypes.Null)
	if t.Else != nil {
		els = lv.expr(t.Else)
	}
	return func(ex *executor, e *env) (sqltypes.Value, error) {
		for i, c := range conds {
			tv, err := c(ex, e)
			if err != nil {
				return sqltypes.Null, err
			}
			if tv == triTrue {
				return results[i](ex, e)
			}
		}
		return els(ex, e)
	}
}

// Scalar builtins, resolved by name at compile time.
const (
	fnUnknown = iota
	fnAbs
	fnRound
	fnCoalesce
	fnLength
	fnUpper
	fnLower
)

var scalarFuncs = map[string]int{
	"ABS": fnAbs, "ROUND": fnRound, "COALESCE": fnCoalesce,
	"LENGTH": fnLength, "UPPER": fnUpper, "LOWER": fnLower,
}

func (lv *level) scalarFunc(t *sqlparser.FuncCall) expr {
	args := make([]expr, len(t.Args))
	for i, a := range t.Args {
		args[i] = lv.expr(a)
	}
	fn := scalarFuncs[t.Name]
	if !total(fn, len(args)) {
		lv.fallible()
	}
	missing := rtErrf("function %q does not exist", t.Name)
	return func(ex *executor, e *env) (sqltypes.Value, error) {
		var buf [4]sqltypes.Value
		vals := buf[:0]
		for _, a := range args {
			v, err := a(ex, e)
			if err != nil {
				return sqltypes.Null, err
			}
			vals = append(vals, v)
		}
		if v, ok := applyScalar(fn, vals); ok {
			return v, nil
		}
		return sqltypes.Null, missing
	}
}

// total reports whether applyScalar answers every call of fn with nargs
// arguments: COALESCE always, LENGTH, UPPER and LOWER with one argument.
// ABS and ROUND fail on a non-numeric value.
func total(fn, nargs int) bool {
	switch fn {
	case fnCoalesce:
		return true
	case fnLength, fnUpper, fnLower:
		return nargs == 1
	}
	return false
}

// applyScalar implements the non-aggregate builtins; ok is false where the
// call matches none (unknown name, wrong arity or argument kind).
func applyScalar(fn int, args []sqltypes.Value) (sqltypes.Value, bool) {
	switch fn {
	case fnAbs:
		if len(args) == 1 && args[0].IsNumeric() {
			if args[0].Float() < 0 {
				return args[0].Neg(), true
			}
			return args[0], true
		}
	case fnRound:
		if len(args) >= 1 && args[0].IsNumeric() {
			f := args[0].Float()
			if f < 0 {
				return sqltypes.NewFloat(float64(int64(f - 0.5))), true
			}
			return sqltypes.NewFloat(float64(int64(f + 0.5))), true
		}
	case fnCoalesce:
		for _, a := range args {
			if !a.IsNull() {
				return a, true
			}
		}
		return sqltypes.Null, true
	case fnLength:
		if len(args) == 1 {
			return sqltypes.NewInt(int64(len(args[0].String()))), true
		}
	case fnUpper:
		if len(args) == 1 {
			return sqltypes.NewString(strings.ToUpper(args[0].String())), true
		}
	case fnLower:
		if len(args) == 1 {
			return sqltypes.NewString(strings.ToLower(args[0].String())), true
		}
	}
	return sqltypes.Null, false
}
