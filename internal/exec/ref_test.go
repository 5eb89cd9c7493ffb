package exec

import (
	"strings"

	"sqlbarber/internal/plan"
	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/sqltypes"
	"sqlbarber/internal/storage"
)

// This file is the reference executor the differential tests compare the
// compiled programs against. It interprets the AST directly on every tuple —
// column references through Binding.Cols, output aliases through
// Binding.Aliases, aggregates through a per-group map — and runs each query
// level by brute force: the full cross product of its table instances
// (LEFT JOINs null-extend tuples no row matched), the whole WHERE per tuple,
// grouping by pairwise key comparison, and every subquery rerun from
// scratch (an uncorrelated one memoized once computed). It shares no code
// with the executor beyond the sqltypes value operations.

// refEnv is the reference's tuple environment: one row per table instance of
// q, chained to the enclosing query's environment for correlated subqueries.
type refEnv struct {
	q      *plan.Query
	rows   []storage.Row
	parent *refEnv
	aggs   map[*sqlparser.FuncCall]sqltypes.Value
}

func (e *refEnv) lookup(ref plan.ColRef) sqltypes.Value {
	cur := e
	for l := 0; l < ref.Level; l++ {
		if cur.parent == nil {
			return sqltypes.Null
		}
		cur = cur.parent
	}
	if ref.TableIdx >= len(cur.rows) || cur.rows[ref.TableIdx] == nil {
		return sqltypes.Null
	}
	return cur.rows[ref.TableIdx][ref.ColIdx]
}

type refExecutor struct {
	db *storage.Database
	// subs memoizes each uncorrelated subquery's rows.
	subs map[*sqlparser.SelectStmt][]storage.Row
	// depth bounds alias expansion, which the binder lets refer to itself.
	depth int
}

func newRef(db *storage.Database) *refExecutor {
	return &refExecutor{db: db, subs: map[*sqlparser.SelectStmt][]storage.Row{}}
}

// query evaluates one query level by brute force. ORDER BY and LIMIT are
// outside the reference's class (the callers compare row multisets).
func (rx *refExecutor) query(q *plan.Query, parent *refEnv) ([]storage.Row, error) {
	stmt := q.Stmt
	if len(stmt.OrderBy) > 0 || stmt.Limit >= 0 {
		return nil, rtErrf("reference: ORDER BY and LIMIT are not supported")
	}
	n := len(q.Binding.Scope.Tables)
	table := func(ti int) []storage.Row {
		return storedRows(rx.db.Table(q.Binding.Scope.Tables[ti].Table.Name))
	}
	tuples := [][]storage.Row{}
	for _, r := range table(0) {
		tp := make([]storage.Row, n)
		tp[0] = r
		tuples = append(tuples, tp)
	}
	for ji, j := range stmt.Joins {
		ti := ji + 1
		var next [][]storage.Row
		for _, tp := range tuples {
			matched := false
			for _, r := range table(ti) {
				nt := append([]storage.Row(nil), tp...)
				nt[ti] = r
				v, err := rx.eval(j.On, &refEnv{q: q, rows: nt, parent: parent})
				if err != nil {
					return nil, err
				}
				if v.Bool() {
					matched = true
					next = append(next, nt)
				}
			}
			if !matched && j.Type == sqlparser.JoinLeft {
				next = append(next, append([]storage.Row(nil), tp...))
			}
		}
		tuples = next
	}
	var kept [][]storage.Row
	for _, tp := range tuples {
		if stmt.Where != nil {
			v, err := rx.eval(stmt.Where, &refEnv{q: q, rows: tp, parent: parent})
			if err != nil {
				return nil, err
			}
			if !v.Bool() {
				continue
			}
		}
		kept = append(kept, tp)
	}
	var out []storage.Row
	var err error
	if q.Aggregated {
		out, err = rx.aggregate(q, parent, kept)
	} else {
		for _, tp := range kept {
			row, err := rx.project(q, &refEnv{q: q, rows: tp, parent: parent})
			if err != nil {
				return nil, err
			}
			out = append(out, row)
		}
	}
	if err != nil {
		return nil, err
	}
	if stmt.Distinct {
		var uniq []storage.Row
		for _, r := range out {
			dup := false
			for _, u := range uniq {
				if refSameRow(r, u) {
					dup = true
					break
				}
			}
			if !dup {
				uniq = append(uniq, r)
			}
		}
		out = uniq
	}
	return out, nil
}

func (rx *refExecutor) project(q *plan.Query, e *refEnv) (storage.Row, error) {
	var row storage.Row
	for _, it := range q.Stmt.Items {
		if it.Star {
			for ti, inst := range q.Binding.Scope.Tables {
				for ci := range inst.Table.Columns {
					row = append(row, e.lookup(plan.ColRef{TableIdx: ti, ColIdx: ci}))
				}
			}
			continue
		}
		v, err := rx.eval(it.Expr, e)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	return row, nil
}

// refSameKey is grouping equality: NULL with NULL, numbers by Compare,
// strings and booleans by value, never across those classes.
func refSameKey(a, b sqltypes.Value) bool {
	switch {
	case a.IsNull() || b.IsNull():
		return a.IsNull() && b.IsNull()
	case a.IsNumeric() && b.IsNumeric():
		return a.Compare(b) == 0
	}
	return a.Kind() == b.Kind() && a.Compare(b) == 0
}

func refSameRow(a, b storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !refSameKey(a[i], b[i]) {
			return false
		}
	}
	return true
}

// aggregate groups the tuples by pairwise key comparison and computes every
// aggregate call of a group directly over the group's tuples.
func (rx *refExecutor) aggregate(q *plan.Query, parent *refEnv, tuples [][]storage.Row) ([]storage.Row, error) {
	stmt := q.Stmt
	type group struct {
		key    storage.Row
		tuples [][]storage.Row
	}
	var groups []*group
	for _, tp := range tuples {
		e := &refEnv{q: q, rows: tp, parent: parent}
		var key storage.Row
		for _, g := range stmt.GroupBy {
			v, err := rx.eval(g, e)
			if err != nil {
				return nil, err
			}
			key = append(key, v)
		}
		var grp *group
		for _, gr := range groups {
			if refSameRow(gr.key, key) {
				grp = gr
				break
			}
		}
		if grp == nil {
			grp = &group{key: key}
			groups = append(groups, grp)
		}
		grp.tuples = append(grp.tuples, tp)
	}
	if len(stmt.GroupBy) == 0 && len(groups) == 0 {
		groups = append(groups, &group{})
	}
	var calls []*sqlparser.FuncCall
	stmt.EachClause(func(clause string, x sqlparser.Expr) {
		if clause == "SELECT" || clause == "HAVING" || clause == "ORDER BY" {
			sqlparser.Walk(x, func(x sqlparser.Expr) bool {
				f, ok := x.(*sqlparser.FuncCall)
				if ok && f.IsAggregate() {
					calls = append(calls, f)
					return false
				}
				return true
			}, nil)
		}
	})
	var out []storage.Row
	for _, grp := range groups {
		aggs := map[*sqlparser.FuncCall]sqltypes.Value{}
		for _, c := range calls {
			v, err := rx.aggValue(q, parent, c, grp.tuples)
			if err != nil {
				return nil, err
			}
			aggs[c] = v
		}
		rows := make([]storage.Row, len(q.Binding.Scope.Tables))
		if len(grp.tuples) > 0 {
			rows = grp.tuples[0]
		}
		e := &refEnv{q: q, rows: rows, parent: parent, aggs: aggs}
		if stmt.Having != nil {
			v, err := rx.eval(stmt.Having, e)
			if err != nil {
				return nil, err
			}
			if !v.Bool() {
				continue
			}
		}
		for _, it := range stmt.Items {
			if it.Star {
				return nil, rtErrf("SELECT * cannot be combined with aggregation")
			}
		}
		row, err := rx.project(q, e)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// aggValue computes one aggregate call over a group's tuples, in tuple
// order: COUNT counts non-NULL values (all tuples for COUNT(*)); SUM is an
// integer while every summed value is one; AVG is the float sum over the
// count; MIN and MAX keep the first of equal extremes; DISTINCT drops a
// value equal (by grouping equality) to one already seen.
func (rx *refExecutor) aggValue(q *plan.Query, parent *refEnv, c *sqlparser.FuncCall, tuples [][]storage.Row) (sqltypes.Value, error) {
	if c.Star {
		return sqltypes.NewInt(int64(len(tuples))), nil
	}
	var vals []sqltypes.Value
	for _, tp := range tuples {
		v, err := rx.eval(c.Args[0], &refEnv{q: q, rows: tp, parent: parent})
		if err != nil {
			return sqltypes.Null, err
		}
		if v.IsNull() {
			continue
		}
		if c.Distinct {
			dup := false
			for _, w := range vals {
				if refSameKey(v, w) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
		}
		vals = append(vals, v)
	}
	switch c.Name {
	case "COUNT":
		return sqltypes.NewInt(int64(len(vals))), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return sqltypes.Null, nil
		}
		var sum float64
		var sumInt int64
		allInt := true
		for _, v := range vals {
			if !v.IsNumeric() {
				continue
			}
			sum += v.Float()
			if v.Kind() == sqltypes.KindInt {
				sumInt += v.Int()
			} else {
				allInt = false
			}
		}
		if c.Name == "AVG" {
			return sqltypes.NewFloat(sum / float64(len(vals))), nil
		}
		if allInt {
			return sqltypes.NewInt(sumInt), nil
		}
		return sqltypes.NewFloat(sum), nil
	}
	if len(vals) == 0 {
		return sqltypes.Null, nil
	}
	best := vals[0]
	for _, v := range vals[1:] {
		cmp := v.Compare(best)
		if cmp < 0 && c.Name == "MIN" || cmp > 0 && c.Name == "MAX" {
			best = v
		}
	}
	return best, nil
}

// runSub evaluates a nested SELECT from scratch, memoizing an uncorrelated
// one.
func (rx *refExecutor) runSub(sub *sqlparser.SelectStmt, en *refEnv) ([]storage.Row, error) {
	sq, ok := en.q.Subplans[sub]
	if !ok {
		return nil, rtErrf("subquery was not planned")
	}
	if rows, ok := rx.subs[sub]; ok && !sq.Correlated {
		return rows, nil
	}
	rows, err := rx.query(sq, en)
	if err != nil {
		return nil, err
	}
	if !sq.Correlated {
		rx.subs[sub] = rows
	}
	return rows, nil
}

// eval interprets an expression in the given tuple environment.
func (rx *refExecutor) eval(e sqlparser.Expr, en *refEnv) (sqltypes.Value, error) {
	switch t := e.(type) {
	case *sqlparser.Literal:
		return t.Value, nil
	case *sqlparser.Placeholder:
		return sqltypes.Null, rtErrf("placeholder {%s} reached the executor", t.Name)
	case *sqlparser.ColumnRef:
		if ref, ok := en.q.Binding.Cols[t]; ok {
			return en.lookup(ref), nil
		}
		if alias, ok := en.q.Binding.Aliases[strings.ToLower(t.Name)]; ok && rx.depth < 64 {
			rx.depth++
			defer func() { rx.depth-- }()
			return rx.eval(alias, en)
		}
		return sqltypes.Null, rtErrf("unresolved column %q", t.Name)
	case *sqlparser.BinaryExpr:
		return rx.evalBinary(t, en)
	case *sqlparser.UnaryExpr:
		v, err := rx.eval(t.X, en)
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
			if v, ok := en.aggs[t]; ok {
				return v, nil
			}
			return sqltypes.Null, rtErrf("aggregate %s evaluated outside aggregation context", t.Name)
		}
		return rx.evalScalarFunc(t, en)
	case *sqlparser.CaseExpr:
		for _, w := range t.Whens {
			c, err := rx.eval(w.Cond, en)
			if err != nil {
				return sqltypes.Null, err
			}
			if c.Bool() {
				return rx.eval(w.Result, en)
			}
		}
		if t.Else != nil {
			return rx.eval(t.Else, en)
		}
		return sqltypes.Null, nil
	case *sqlparser.BetweenExpr:
		x, err := rx.eval(t.X, en)
		if err != nil {
			return sqltypes.Null, err
		}
		lo, err := rx.eval(t.Lo, en)
		if err != nil {
			return sqltypes.Null, err
		}
		hi, err := rx.eval(t.Hi, en)
		if err != nil {
			return sqltypes.Null, err
		}
		if x.IsNull() || lo.IsNull() || hi.IsNull() {
			return sqltypes.Null, nil
		}
		in := x.Compare(lo) >= 0 && x.Compare(hi) <= 0
		return sqltypes.NewBool(in != t.Not), nil
	case *sqlparser.LikeExpr:
		x, err := rx.eval(t.X, en)
		if err != nil {
			return sqltypes.Null, err
		}
		p, err := rx.eval(t.Pattern, en)
		if err != nil {
			return sqltypes.Null, err
		}
		if x.IsNull() || p.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(likeRef(x.String(), p.String()) != t.Not), nil
	case *sqlparser.IsNullExpr:
		x, err := rx.eval(t.X, en)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewBool(x.IsNull() != t.Not), nil
	case *sqlparser.InExpr:
		return rx.evalIn(t, en)
	case *sqlparser.ExistsExpr:
		rows, err := rx.runSub(t.Sub, en)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewBool((len(rows) > 0) != t.Not), nil
	case *sqlparser.SubqueryExpr:
		rows, err := rx.runSub(t.Sub, en)
		if err != nil {
			return sqltypes.Null, err
		}
		if len(rows) == 0 || len(rows[0]) == 0 {
			return sqltypes.Null, nil
		}
		if len(rows) > 1 {
			return sqltypes.Null, rtErrf("scalar subquery returned more than one row")
		}
		return rows[0][0], nil
	}
	return sqltypes.Null, rtErrf("unsupported expression %T", e)
}

func (rx *refExecutor) evalBinary(t *sqlparser.BinaryExpr, en *refEnv) (sqltypes.Value, error) {
	switch t.Op {
	case sqlparser.OpAnd:
		l, err := rx.eval(t.L, en)
		if err != nil {
			return sqltypes.Null, err
		}
		if !l.IsNull() && !l.Bool() {
			return sqltypes.NewBool(false), nil
		}
		r, err := rx.eval(t.R, en)
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
		l, err := rx.eval(t.L, en)
		if err != nil {
			return sqltypes.Null, err
		}
		if !l.IsNull() && l.Bool() {
			return sqltypes.NewBool(true), nil
		}
		r, err := rx.eval(t.R, en)
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
	l, err := rx.eval(t.L, en)
	if err != nil {
		return sqltypes.Null, err
	}
	r, err := rx.eval(t.R, en)
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

// evalIn answers IN by a linear scan: a list item or subquery row whose
// first column equals x.
func (rx *refExecutor) evalIn(t *sqlparser.InExpr, en *refEnv) (sqltypes.Value, error) {
	x, err := rx.eval(t.X, en)
	if err != nil {
		return sqltypes.Null, err
	}
	if x.IsNull() {
		return sqltypes.Null, nil
	}
	if t.Sub != nil {
		rows, err := rx.runSub(t.Sub, en)
		if err != nil {
			return sqltypes.Null, err
		}
		for _, r := range rows {
			if len(r) > 0 && x.Equal(r[0]) {
				return sqltypes.NewBool(!t.Not), nil
			}
		}
		return sqltypes.NewBool(t.Not), nil
	}
	for _, item := range t.List {
		v, err := rx.eval(item, en)
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
func (rx *refExecutor) evalScalarFunc(t *sqlparser.FuncCall, en *refEnv) (sqltypes.Value, error) {
	var args []sqltypes.Value
	for _, a := range t.Args {
		v, err := rx.eval(a, en)
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

// likeRef is the recursive LIKE matcher likeMatch replaced: the reference
// for its property test. It tries every split at each %, so its time grows
// with the power of the number of %.
func likeRef(s, p string) bool {
	if p == "" {
		return s == ""
	}
	switch p[0] {
	case '%':
		for i := 0; i <= len(s); i++ {
			if likeRef(s[i:], p[1:]) {
				return true
			}
		}
		return false
	case '_':
		if s == "" {
			return false
		}
		return likeRef(s[1:], p[1:])
	default:
		if s == "" || s[0] != p[0] {
			return false
		}
		return likeRef(s[1:], p[1:])
	}
}

// storedRows returns every row of tbl.
func storedRows(tbl *storage.Table) []storage.Row {
	out := make([]storage.Row, tbl.Len())
	for i := range out {
		out[i] = tbl.Row(i)
	}
	return out
}
