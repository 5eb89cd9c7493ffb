// Package exec implements the embedded engine's query executor. It compiles
// planned queries (see internal/plan) into programs (Compile) and runs them
// against the in-memory store, supporting filters, hash and nested-loop
// joins, left joins, grouping and aggregation, HAVING, DISTINCT, ORDER BY,
// LIMIT, and correlated and uncorrelated subqueries.
package exec

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"sqlbarber/internal/plan"
	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/sqltypes"
	"sqlbarber/internal/storage"
)

// Result is the output of executing a query.
type Result struct {
	// Columns names the output columns. Every result of one Program shares
	// the slice: read it, do not modify it.
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

// Run compiles a planned query without parameter slots and executes it
// against the database.
func Run(db *storage.Database, q *plan.Query) (*Result, error) {
	return Compile(q, nil).Run(db, nil, new(Arena))
}

// Run executes the program at one probe's bound parameter vector (as
// produced by plan.CompiledQuery.BindVals, read by slot index). Results are
// identical to compiling and running a plan built from the value-substituted
// statement. Scratch (tuple lists and hash indexes) comes from the caller's
// non-nil arena, which a session reuses across probes; the returned Result
// owns its rows and never aliases the arena. The caller must keep params
// unchanged until Run returns.
func (p *Program) Run(db *storage.Database, params []sqltypes.Value, a *Arena) (*Result, error) {
	res, touched, err := p.exec(db, params, a, false)
	if err != nil {
		return nil, err
	}
	res.RowsTouched = touched
	return res, nil
}

// Probe executes the program like Run for a measured probe, which reads only
// the work done: it returns Run's RowsTouched and error, but the root query
// produces no output. After its scans and joins, the root runs only what the
// compiler could not prove inert, that is, free of error sites and
// subqueries (see prog.inertOutput). With an inert output phase, Probe
// returns right after the join pipeline if the residual conjuncts are inert
// too, and right after the residual otherwise. With a fallible output phase,
// it evaluates the root's output in Run's order without storing it and
// skips DISTINCT, ORDER BY and LIMIT, which only reshape it. Subqueries run
// and materialise as under Run.
func (p *Program) Probe(db *storage.Database, params []sqltypes.Value, a *Arena) (int64, error) {
	_, touched, err := p.exec(db, params, a, true)
	if err != nil {
		return 0, err
	}
	return touched, nil
}

// exec runs the root query and returns its result (nil when countOnly) and
// the tuples it touched.
func (p *Program) exec(db *storage.Database, params []sqltypes.Value, a *Arena, countOnly bool) (*Result, int64, error) {
	ex := &executor{db: db, params: params, ar: a, nCache: p.nCache}
	res, err := ex.run(p.root, nil, countOnly)
	for i := range ex.subs {
		if set := ex.subs[i].set; set != nil {
			a.putIndex(set)
		}
	}
	return res, ex.rowsTouched, err
}

type executor struct {
	db     *storage.Database
	params []sqltypes.Value
	ar     *Arena
	// subs holds each uncorrelated subquery's result for the lifetime of the
	// outer statement, indexed by prog.cache; allocated on first use.
	subs        []cachedSub
	nCache      int
	rowsTouched int64
}

// env is the tuple environment: one bound row index per table instance of
// the current query (-1 for no row) into that instance's stored table,
// chained to the enclosing query's env for correlated subqueries.
type env struct {
	tabs   []*storage.Table
	rows   []int32
	parent *env
	// aggs holds the current group's aggregate results, by position, during
	// post-aggregation evaluation; nil before.
	aggs []sqltypes.Value
}

// frame is one query level's execution state. Tuples are row indexes (int32:
// a table holds fewer than 2^31 rows): a tuple list is a flat []int32 in
// which tuple i is the n entries tuples[i*n : (i+1)*n] (see tupleAt), entry
// k indexing e.tabs[k], the stored table of instance k (set by its scan),
// or -1 where the instance has no row (not yet joined, or null-extended by a
// LEFT JOIN). Every loop of the level evaluates in the one env e, whose
// window e.rows bind copies each tuple into in turn.
type frame struct {
	n int
	e env
}

func tupleAt(tuples []int32, i, n int) []int32 {
	return tuples[i*n : (i+1)*n : (i+1)*n]
}

// bind points the window at the rows of tuple tp.
func (f *frame) bind(tp []int32) { copy(f.e.rows, tp) }

// unbind leaves the window on no row of any instance.
func (f *frame) unbind() {
	for k := range f.e.rows {
		f.e.rows[k] = -1
	}
}

// run executes one query level. countOnly returns a nil result: it skips
// the phases the compiler proved inert and evaluates the rest of the output
// without storing it (see Program.Probe); subqueries always materialise.
func (ex *executor) run(p *prog, parent *env, countOnly bool) (*Result, error) {
	n := p.n
	f := &frame{n: n, e: env{tabs: make([]*storage.Table, n), rows: make([]int32, n), parent: parent}}
	tuples, err := ex.joinPipeline(p, f)
	if err != nil {
		return nil, err
	}
	skipOutput := countOnly && p.inertOutput
	// Residual predicates (multi-table and subquery conjuncts), compacting
	// the surviving tuples in place.
	if len(p.residual) > 0 && !(skipOutput && p.inertResidual) {
		kept := 0
		for i := 0; i < len(tuples)/n; i++ {
			tp := tupleAt(tuples, i, n)
			f.bind(tp)
			keep, err := ex.all(p.residual, &f.e)
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
	if skipOutput {
		ex.ar.putList(tuples)
		return nil, nil
	}
	var out *Result
	if p.aggregated {
		out, err = ex.aggregate(p, f, tuples, countOnly)
	} else {
		out, err = ex.project(p, f, tuples, countOnly)
	}
	ex.ar.putList(tuples)
	if err != nil || countOnly {
		return nil, err
	}
	if p.distinct {
		out.Rows = dedupe(out.Rows)
	}
	if p.limit >= 0 && len(out.Rows) > p.limit {
		out.Rows = out.Rows[:p.limit]
	}
	return out, nil
}

// all evaluates conjuncts in order, stopping at the first that is not true.
func (ex *executor) all(conds []pred, e *env) (bool, error) {
	for _, c := range conds {
		t, err := c(ex, e)
		if err != nil || t != triTrue {
			return false, err
		}
	}
	return true, nil
}

// scan reads table instance idx, records its stored table in the frame,
// and returns the indexes of the rows its pushed-down filters keep, in a
// list checked out of the arena.
func (ex *executor) scan(p *prog, f *frame, idx int) ([]int32, error) {
	tbl := ex.db.Table(p.tables[idx])
	if tbl == nil {
		return nil, rtErrf("relation %q has no storage", p.tables[idx])
	}
	f.e.tabs[idx] = tbl
	rows := tbl.Len()
	ex.rowsTouched += int64(rows)
	filters := p.filters[idx]
	if len(filters) == 0 {
		out := slices.Grow(ex.ar.getList(rows), rows)[:rows]
		for i := range out {
			out[i] = int32(i)
		}
		return out, nil
	}
	f.unbind()
	out := ex.ar.getList(rows)
	for i := 0; i < rows; i++ {
		f.e.rows[idx] = int32(i)
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
func (ex *executor) joinPipeline(p *prog, f *frame) ([]int32, error) {
	n := f.n
	tuples, err := ex.scan(p, f, 0)
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
	for ji := range p.joins {
		right, err := ex.scan(p, f, ji+1)
		if err != nil {
			return nil, err
		}
		next, err := ex.joinStep(&p.joins[ji], f, tuples, right, ji+1)
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
// rightIdx under join j, returning a new tuple list checked out of the
// arena.
func (ex *executor) joinStep(j *joinProg, f *frame, tuples, right []int32, rightIdx int) ([]int32, error) {
	n := f.n
	checkExtra := func(tp []int32, ri int32) (bool, error) {
		if len(j.extra) == 0 {
			return true, nil
		}
		f.bind(tp)
		f.e.rows[rightIdx] = ri
		return ex.all(j.extra, &f.e)
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
	if j.equi {
		lcol, rcol := &f.e.tabs[j.lt].Cols[j.lc], &f.e.tabs[rightIdx].Cols[j.rc]
		hi := ex.ar.buildIndex(rcol, right)
		for i := 0; i < count; i++ {
			tp := tupleAt(tuples, i, n)
			lv := sqltypes.Null
			if li := tp[j.lt]; li >= 0 {
				lv = lcol.Value(int(li))
			}
			matched := false
			if !lv.IsNull() {
				// A chain of an exact key holds only rows equal to lv, so
				// without ON extras the right rows are not even read. A NaN
				// on either side equals every number, so no chain holds all
				// its matches: scan every right row (positions 1..len) and
				// compare.
				scan := hi.nan || isNaN(lv)
				verify := scan || !exactKey(&lv)
				p := int32(1)
				if !scan {
					p = hi.first(&lv)
				}
				for ; p != 0 && int(p) <= len(right); p = advance(hi, p, scan) {
					ri := right[p-1]
					if verify || len(j.extra) > 0 {
						if verify && !lv.Equal(rcol.Value(int(ri))) {
							continue
						}
						ok, err := checkExtra(tp, ri)
						if err != nil {
							return nil, err
						}
						if !ok {
							continue
						}
					}
					matched = true
					emit(tp, ri)
				}
			}
			if j.left && !matched {
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
			ok, err := checkExtra(tp, ri)
			if err != nil {
				return nil, err
			}
			if ok {
				matched = true
				emit(tp, ri)
			}
		}
		if j.left && !matched {
			emit(tp, -1)
		}
	}
	return out, nil
}

// advance returns the join candidate after position p (+1): the next
// position when scanning every row, else the next in p's chain.
func advance(hi *hashIndex, p int32, scan bool) int32 {
	if scan {
		return p + 1
	}
	return hi.next[p-1]
}

// project evaluates the select list per tuple (non-aggregate queries) and
// applies ORDER BY.
func (ex *executor) project(p *prog, f *frame, tuples []int32, countOnly bool) (*Result, error) {
	count := len(tuples) / f.n
	out := newOutput(p, count, countOnly)
	for i := 0; i < count; i++ {
		f.bind(tupleAt(tuples, i, f.n))
		if err := ex.emit(p, &f.e, &out); err != nil {
			return nil, err
		}
	}
	return out.result(p), nil
}

// output collects a query level's output rows, which share one backing
// array, and their ORDER BY keys, row-major. A countOnly output evaluates
// every row into one scratch row and keeps nothing.
type output struct {
	countOnly bool
	vals      []sqltypes.Value
	rows      []storage.Row
	keys      []sqltypes.Value
}

// newOutput sizes an output for at most n rows.
func newOutput(p *prog, n int, countOnly bool) output {
	width := len(p.items)
	if countOnly {
		return output{countOnly: true, vals: make([]sqltypes.Value, width)}
	}
	o := output{vals: make([]sqltypes.Value, 0, n*width), rows: make([]storage.Row, 0, n)}
	if len(p.orderKeys) > 0 {
		o.keys = make([]sqltypes.Value, 0, n*len(p.orderKeys))
	}
	return o
}

// emit evaluates the select items, then the ORDER BY keys, of the tuple in
// e, and adds them to o.
func (ex *executor) emit(p *prog, e *env, o *output) error {
	width := len(p.items)
	row := o.vals[:width]
	if !o.countOnly {
		k := len(o.vals)
		o.vals = o.vals[:k+width]
		row = o.vals[k : k+width : k+width]
	}
	for i, it := range p.items {
		v, err := it(ex, e)
		if err != nil {
			return err
		}
		row[i] = v
	}
	for _, ok := range p.orderKeys {
		v, err := ok(ex, e)
		if err != nil {
			return err
		}
		if !o.countOnly {
			o.keys = append(o.keys, v)
		}
	}
	if !o.countOnly {
		o.rows = append(o.rows, row)
	}
	return nil
}

// result returns the collected rows in ORDER BY order.
func (o *output) result(p *prog) *Result {
	res := &Result{Columns: p.columns}
	if len(o.rows) > 0 {
		res.Rows = o.rows
		orderRows(res.Rows, o.keys, p.orderBy)
	}
	return res
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

// dedupe keeps the first of each set of rows that are equal column by
// column under the grouping key (see appendKey).
func dedupe(rows []storage.Row) []storage.Row {
	seen := map[string]bool{}
	out := rows[:0]
	var key []byte
	for _, r := range rows {
		key = key[:0]
		for i := range r {
			key = appendKey(key, &r[i])
		}
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		out = append(out, r)
	}
	return out
}

// cachedSub is an uncorrelated subquery's result, kept for the lifetime of
// the outer statement, plus the hash set of its first column once an IN
// predicate has asked for one.
type cachedSub struct {
	res *Result
	// set indexes res.Rows by first-column value; nil until first built.
	// noSet marks a set with a NaN member, which lookups cannot use.
	set   *hashIndex
	noSet bool
}

// runSub executes a nested SELECT. An uncorrelated subquery (a plan-time
// fact, plan.Query.Correlated) runs once per statement and also returns its
// cache entry; a correlated one reruns for every outer row and returns a nil
// entry.
func (ex *executor) runSub(sp *prog, en *env) (*Result, *cachedSub, error) {
	if sp.cache < 0 {
		res, err := ex.run(sp, en, false)
		return res, nil, err
	}
	if ex.subs == nil {
		ex.subs = make([]cachedSub, ex.nCache)
	}
	cs := &ex.subs[sp.cache]
	if cs.res != nil {
		return cs.res, cs, nil
	}
	res, err := ex.run(sp, en, false)
	if err != nil {
		return nil, nil, err
	}
	cs.res = res
	return res, cs, nil
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
		cs.set = ar.buildRowIndex(rows)
		if cs.noSet = cs.set.nan; cs.noSet {
			return false, false
		}
	}
	verify := !exactKey(&x)
	for p := cs.set.first(&x); p != 0; p = cs.set.next[p-1] {
		if !verify || x.Equal(rows[p-1][0]) {
			return true, true
		}
	}
	return false, true
}

func isNaN(v sqltypes.Value) bool {
	return v.Kind() == sqltypes.KindFloat && math.IsNaN(v.Float())
}
