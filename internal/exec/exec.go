// Package exec implements the embedded engine's query executor. It runs
// planned queries (see internal/plan) against the in-memory store,
// supporting filters, hash and nested-loop joins, left joins, grouping and
// aggregation, HAVING, DISTINCT, ORDER BY, LIMIT, and correlated and
// uncorrelated subqueries.
package exec

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"sqlbarber/internal/plan"
	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/sqltypes"
	"sqlbarber/internal/storage"
)

// Result is the output of executing a query.
type Result struct {
	Columns []string
	Rows    []storage.Row
	// RowsTouched counts tuples processed while executing the query (rows
	// scanned plus intermediate join tuples) — a deterministic
	// execution-effort metric usable as a query cost (Definition 2.10's
	// "actual measurements" option).
	RowsTouched int64
}

// RuntimeError reports an execution-time failure.
type RuntimeError struct {
	Msg string
}

// Error implements the error interface.
func (e *RuntimeError) Error() string { return e.Msg }

func rtErrf(format string, args ...any) *RuntimeError {
	return &RuntimeError{Msg: fmt.Sprintf(format, args...)}
}

// Run executes a planned query against the database.
func Run(db *storage.Database, q *plan.Query) (*Result, error) {
	return run(&executor{db: db, ar: new(Arena)}, q)
}

// RunBoundArena executes a compiled plan at one probe's value environment:
// slot literals resolve through the bound view, the shared skeleton AST is
// never written. Results are identical to Run over a plan built from the
// value-substituted statement. Scratch (tuple lists and hash indexes) comes
// from the caller's non-nil arena, which a session reuses across probes; the
// returned Result owns its rows and never aliases the arena.
func RunBoundArena(db *storage.Database, bp *plan.BoundPlan, a *Arena) (*Result, error) {
	return run(&executor{db: db, bound: bp, ar: a}, bp.Query())
}

func run(ex *executor, q *plan.Query) (*Result, error) {
	res, err := ex.runQuery(q, nil)
	for _, cs := range ex.subCache {
		if cs.set != nil {
			ex.ar.putIndex(cs.set)
		}
	}
	if err != nil {
		return nil, err
	}
	res.RowsTouched = ex.rowsTouched
	return res, nil
}

type executor struct {
	db *storage.Database
	// subCache holds each uncorrelated subquery's result for the lifetime of
	// the outer statement.
	subCache map[*sqlparser.SelectStmt]*cachedSub
	// bound, when set, is the probe's immutable value environment: literal
	// slots evaluate through it instead of the AST's neutral compile-time
	// values.
	bound       *plan.BoundPlan
	ar          *Arena
	rowsTouched int64
}

// env is the tuple environment: one row per table instance of the current
// query, chained to the enclosing query's env for correlated subqueries.
type env struct {
	q      *plan.Query
	rows   []storage.Row
	parent *env
	// aggs maps aggregate calls to their computed group values during
	// post-aggregation expression evaluation.
	aggs map[*sqlparser.FuncCall]sqltypes.Value
}

func (e *env) lookup(ref plan.ColRef) sqltypes.Value {
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

// frame is one query level's execution state. Tuples are row indexes, not
// rows (int32: a table holds fewer than 2^31 rows): a tuple list is a flat
// []int32 in which tuple i is the n entries tuples[i*n : (i+1)*n] (see
// tupleAt), entry k indexing srcs[k], the stored rows of table instance k,
// or -1 where the instance has no row (not yet joined, or null-extended by a
// LEFT JOIN). Every loop of the level evaluates in the one env e, whose
// window e.rows bind points at each tuple in turn.
type frame struct {
	n    int
	srcs [][]storage.Row
	e    env
}

func tupleAt(tuples []int32, i, n int) []int32 {
	return tuples[i*n : (i+1)*n : (i+1)*n]
}

// bind points the window at the rows of tuple tp.
func (f *frame) bind(tp []int32) {
	for k, ri := range tp {
		if ri < 0 {
			f.e.rows[k] = nil
		} else {
			f.e.rows[k] = f.srcs[k][ri]
		}
	}
}

func (ex *executor) runQuery(q *plan.Query, parent *env) (*Result, error) {
	n := len(q.Binding.Scope.Tables)
	f := &frame{n: n, srcs: make([][]storage.Row, n),
		e: env{q: q, rows: make([]storage.Row, n), parent: parent}}
	tuples, err := ex.joinPipeline(q, f)
	if err != nil {
		return nil, err
	}
	// Residual predicates (multi-table and subquery conjuncts), compacting
	// the surviving tuples in place.
	if len(q.Residual) > 0 {
		kept := 0
		for i := 0; i < len(tuples)/n; i++ {
			tp := tupleAt(tuples, i, n)
			f.bind(tp)
			keep, err := ex.all(q.Residual, &f.e)
			if err != nil {
				return nil, err
			}
			if keep {
				copy(tuples[kept*n:], tp)
				kept++
			}
		}
		tuples = tuples[:kept*n]
	}
	var out *Result
	if q.Aggregated {
		out, err = ex.aggregate(q, f, tuples)
	} else {
		out, err = ex.project(q, f, tuples)
	}
	ex.ar.putList(tuples)
	if err != nil {
		return nil, err
	}
	if q.Stmt.Distinct {
		out.Rows = dedupe(out.Rows)
	}
	if q.Stmt.Limit >= 0 && len(out.Rows) > q.Stmt.Limit {
		out.Rows = out.Rows[:q.Stmt.Limit]
	}
	return out, nil
}

// all evaluates conjuncts in order, stopping at the first that is not true.
func (ex *executor) all(conds []sqlparser.Expr, e *env) (bool, error) {
	for _, c := range conds {
		v, err := ex.eval(c, e)
		if err != nil {
			return false, err
		}
		if !v.Bool() {
			return false, nil
		}
	}
	return true, nil
}

// scan reads table instance idx, records its stored rows in the frame, and
// returns the indexes of the rows its pushed-down filters keep, in a list
// checked out of the arena.
func (ex *executor) scan(q *plan.Query, f *frame, idx int) ([]int32, error) {
	inst := q.Binding.Scope.Tables[idx]
	tbl := ex.db.Table(inst.Table.Name)
	if tbl == nil {
		return nil, rtErrf("relation %q has no storage", inst.Table.Name)
	}
	f.srcs[idx] = tbl.Rows
	ex.rowsTouched += int64(len(tbl.Rows))
	filters := q.ScanFilters[idx]
	if len(filters) == 0 {
		out := slices.Grow(ex.ar.getList(len(tbl.Rows)), len(tbl.Rows))[:len(tbl.Rows)]
		for i := range out {
			out[i] = int32(i)
		}
		return out, nil
	}
	w := f.e.rows
	clear(w)
	out := ex.ar.getList(len(tbl.Rows))
	for i, r := range tbl.Rows {
		w[idx] = r
		keep, err := ex.all(filters, &f.e)
		if err != nil {
			return nil, err
		}
		if keep {
			out = append(out, int32(i))
		}
	}
	return out, nil
}

// joinPipeline scans and joins all table instances, producing a tuple list
// checked out of the arena. Each scan's list and each step's input tuple list
// is checked back in as soon as the next step has consumed it.
func (ex *executor) joinPipeline(q *plan.Query, f *frame) ([]int32, error) {
	n := f.n
	tuples, err := ex.scan(q, f, 0)
	if err != nil {
		return nil, err
	}
	if n > 1 {
		left := tuples
		tuples = slices.Grow(ex.ar.getList(len(left)*n), len(left)*n)[:len(left)*n]
		for i, ri := range left {
			tp := tupleAt(tuples, i, n)
			tp[0] = ri
			for k := 1; k < n; k++ {
				tp[k] = -1
			}
		}
		ex.ar.putList(left)
	}
	for ji := range q.Stmt.Joins {
		right, err := ex.scan(q, f, ji+1)
		if err != nil {
			return nil, err
		}
		next, err := ex.joinStep(q, f, tuples, right, ji)
		if err != nil {
			return nil, err
		}
		ex.ar.putList(tuples)
		ex.ar.putList(right)
		tuples = next
	}
	return tuples, nil
}

// joinStep joins the tuple list with the selected rows of table instance
// ji+1 under join clause ji, returning a new tuple list checked out of the
// arena.
func (ex *executor) joinStep(q *plan.Query, f *frame, tuples, right []int32, ji int) ([]int32, error) {
	n := f.n
	rightIdx := ji + 1
	rsrc := f.srcs[rightIdx]
	isLeft := q.Stmt.Joins[ji].Type == sqlparser.JoinLeft
	extra := q.JoinExtra[ji]
	checkExtra := func(tp []int32, r storage.Row) (bool, error) {
		if len(extra) == 0 {
			return true, nil
		}
		f.bind(tp)
		f.e.rows[rightIdx] = r
		return ex.all(extra, &f.e)
	}
	// Sized for one match per input tuple, as a foreign-key join gives.
	out := ex.ar.getList(len(tuples))
	// emit appends tp extended with right row ri; tp's entry rightIdx is
	// still -1, which is also what a null-extended tuple keeps.
	emit := func(tp []int32, ri int32) {
		if len(out)+n > cap(out) {
			// Double rather than append's 1.25x: a list that outgrows its
			// recycled capacity reaches its final size in a few steps.
			out = slices.Grow(out, len(out)+n)
		}
		out = append(out, tp...)
		out[len(out)-n+rightIdx] = ri
		ex.rowsTouched++
	}
	count := len(tuples) / n
	if ek := q.JoinEqui[ji]; ek != nil {
		lref := q.Binding.Cols[ek.Left]
		rcol := q.Binding.Cols[ek.Right].ColIdx
		hi := ex.ar.buildIndex(rsrc, right, rcol)
		for i := 0; i < count; i++ {
			tp := tupleAt(tuples, i, n)
			var lv sqltypes.Value
			if li := tp[lref.TableIdx]; li >= 0 {
				lv = f.srcs[lref.TableIdx][li][lref.ColIdx]
			}
			matched := false
			if !lv.IsNull() {
				for p := hi.head[lv.Hash()]; p != 0; p = hi.next[p-1] {
					ri := right[p-1]
					r := rsrc[ri]
					if !lv.Equal(r[rcol]) {
						continue
					}
					ok, err := checkExtra(tp, r)
					if err != nil {
						return nil, err
					}
					if ok {
						matched = true
						emit(tp, ri)
					}
				}
			}
			if isLeft && !matched {
				emit(tp, -1)
			}
		}
		ex.ar.putIndex(hi)
		return out, nil
	}
	// Nested loop with arbitrary ON predicate (checkExtra holds all conds).
	for i := 0; i < count; i++ {
		tp := tupleAt(tuples, i, n)
		matched := false
		for _, ri := range right {
			ok, err := checkExtra(tp, rsrc[ri])
			if err != nil {
				return nil, err
			}
			if ok {
				matched = true
				emit(tp, ri)
			}
		}
		if isLeft && !matched {
			emit(tp, -1)
		}
	}
	return out, nil
}

// project evaluates the select list per tuple (non-aggregate queries) and
// applies ORDER BY. All output rows share one backing array.
func (ex *executor) project(q *plan.Query, f *frame, tuples []int32) (*Result, error) {
	cols, starCols := ex.outputColumns(q)
	res := &Result{Columns: cols}
	count := len(tuples) / f.n
	if count == 0 {
		return res, nil
	}
	width := len(cols)
	vals := make([]sqltypes.Value, count*width)
	res.Rows = make([]storage.Row, count)
	var keys []sqltypes.Value
	if len(q.Stmt.OrderBy) > 0 {
		keys = make([]sqltypes.Value, 0, count*len(q.Stmt.OrderBy))
	}
	e := &f.e
	for i := 0; i < count; i++ {
		f.bind(tupleAt(tuples, i, f.n))
		row := vals[i*width : i*width : (i+1)*width]
		for _, it := range q.Stmt.Items {
			if it.Star {
				for _, sc := range starCols {
					row = append(row, e.lookup(sc))
				}
				continue
			}
			v, err := ex.eval(it.Expr, e)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		res.Rows[i] = row
		var err error
		if keys, err = ex.appendOrderKeys(keys, q, e); err != nil {
			return nil, err
		}
	}
	orderRows(res.Rows, keys, q.Stmt.OrderBy)
	return res, nil
}

// sortable pairs an output row with its ORDER BY keys.
type sortable struct {
	row  storage.Row
	keys []sqltypes.Value
}

// orderRows stably sorts rows by ORDER BY; keys holds len(order) keys per
// row, row-major.
func orderRows(rows []storage.Row, keys []sqltypes.Value, order []sqlparser.OrderItem) {
	if len(order) == 0 || len(rows) < 2 {
		return
	}
	nk := len(order)
	s := make([]sortable, len(rows))
	for i, r := range rows {
		s[i] = sortable{r, keys[i*nk : (i+1)*nk]}
	}
	sort.SliceStable(s, func(i, j int) bool {
		for k := range order {
			c := s[i].keys[k].Compare(s[j].keys[k])
			if c == 0 {
				continue
			}
			if order[k].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	for i := range s {
		rows[i] = s[i].row
	}
}

// appendOrderKeys appends the ORDER BY keys of the tuple in e.
func (ex *executor) appendOrderKeys(keys []sqltypes.Value, q *plan.Query, e *env) ([]sqltypes.Value, error) {
	for _, o := range q.Stmt.OrderBy {
		v, err := ex.eval(o.Expr, e)
		if err != nil {
			return nil, err
		}
		keys = append(keys, v)
	}
	return keys, nil
}

// outputColumns derives output column names and, for star items, the column
// refs to expand.
func (ex *executor) outputColumns(q *plan.Query) ([]string, []plan.ColRef) {
	var cols []string
	var starCols []plan.ColRef
	for _, it := range q.Stmt.Items {
		if it.Star {
			for ti, inst := range q.Binding.Scope.Tables {
				for ci, c := range inst.Table.Columns {
					cols = append(cols, c.Name)
					starCols = append(starCols, plan.ColRef{TableIdx: ti, ColIdx: ci})
				}
			}
			continue
		}
		switch {
		case it.Alias != "":
			cols = append(cols, it.Alias)
		default:
			if cr, ok := it.Expr.(*sqlparser.ColumnRef); ok {
				cols = append(cols, cr.Name)
			} else {
				cols = append(cols, it.Expr.SQL())
			}
		}
	}
	return cols, starCols
}

func dedupe(rows []storage.Row) []storage.Row {
	seen := map[string]bool{}
	out := rows[:0]
	var key []byte
	for _, r := range rows {
		key = key[:0]
		for _, v := range r {
			key = appendKey(key, v)
		}
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		out = append(out, r)
	}
	return out
}

// appendKey appends v.String() and a 0 separator: the byte form grouping
// and DISTINCT compare values by, built without allocating a string.
func appendKey(b []byte, v sqltypes.Value) []byte {
	switch v.Kind() {
	case sqltypes.KindInt:
		b = strconv.AppendInt(b, v.Int(), 10)
	case sqltypes.KindFloat:
		b = strconv.AppendFloat(b, v.Float(), 'g', -1, 64)
	case sqltypes.KindString:
		b = append(b, v.Str()...)
	default:
		b = append(b, v.String()...)
	}
	return append(b, 0)
}
