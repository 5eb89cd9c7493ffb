package exec

import (
	"sqlbarber/internal/plan"
	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/sqltypes"
)

// aggState accumulates one aggregate function over one group.
type aggState struct {
	call     *sqlparser.FuncCall
	count    int64
	sum      float64
	sumIsInt bool
	sumInt   int64
	min, max sqltypes.Value
	distinct map[string]bool
	seenAny  bool
}

// newAggStates returns one group's fresh state for each aggregate call.
func newAggStates(calls []*sqlparser.FuncCall) []aggState {
	sts := make([]aggState, len(calls))
	for i, c := range calls {
		sts[i] = aggState{call: c, sumIsInt: true}
		if c.Distinct {
			sts[i].distinct = map[string]bool{}
		}
	}
	return sts
}

func (st *aggState) add(v sqltypes.Value) {
	if st.call.Star {
		st.count++
		return
	}
	if v.IsNull() {
		return
	}
	if st.distinct != nil {
		k := v.String()
		if st.distinct[k] {
			return
		}
		st.distinct[k] = true
	}
	st.count++
	// Accumulate only what result reads for this function.
	switch st.call.Name {
	case "SUM", "AVG":
		if v.IsNumeric() {
			st.sum += v.Float()
			if v.Kind() == sqltypes.KindInt {
				st.sumInt += v.Int()
			} else {
				st.sumIsInt = false
			}
		}
	case "MIN":
		if !st.seenAny || v.Compare(st.min) < 0 {
			st.min = v
		}
		st.seenAny = true
	case "MAX":
		if !st.seenAny || v.Compare(st.max) > 0 {
			st.max = v
		}
		st.seenAny = true
	}
}

func (st *aggState) result() sqltypes.Value {
	switch st.call.Name {
	case "COUNT":
		return sqltypes.NewInt(st.count)
	case "SUM":
		if st.count == 0 {
			return sqltypes.Null
		}
		if st.sumIsInt {
			return sqltypes.NewInt(st.sumInt)
		}
		return sqltypes.NewFloat(st.sum)
	case "AVG":
		if st.count == 0 {
			return sqltypes.Null
		}
		return sqltypes.NewFloat(st.sum / float64(st.count))
	case "MIN":
		if !st.seenAny {
			return sqltypes.Null
		}
		return st.min
	case "MAX":
		if !st.seenAny {
			return sqltypes.Null
		}
		return st.max
	}
	return sqltypes.Null
}

// group holds one group's state during aggregation.
type group struct {
	repr   int // representative tuple for group-key evaluation; -1 for none
	states []aggState
}

// aggregate executes grouping and aggregation for aggregate queries,
// applying HAVING and ORDER BY over the aggregated output. Group keys are
// built in one reused buffer (see appendKey); groups keep their order of
// first appearance.
func (ex *executor) aggregate(q *plan.Query, f *frame, tuples []int32) (*Result, error) {
	// The outermost aggregate calls of the select list, HAVING and ORDER BY
	// at this level.
	var calls []*sqlparser.FuncCall
	collect := func(x sqlparser.Expr) bool {
		f, ok := x.(*sqlparser.FuncCall)
		if ok && f.IsAggregate() {
			calls = append(calls, f)
			return false
		}
		return true
	}
	q.Stmt.EachClause(func(clause string, x sqlparser.Expr) {
		if clause == "SELECT" || clause == "HAVING" || clause == "ORDER BY" {
			sqlparser.Walk(x, collect, nil)
		}
	})
	index := map[string]int{}
	var groups []group
	var key []byte
	e := &f.e
	for i := 0; i < len(tuples)/f.n; i++ {
		f.bind(tupleAt(tuples, i, f.n))
		key = key[:0]
		for _, g := range q.Stmt.GroupBy {
			v, err := ex.eval(g, e)
			if err != nil {
				return nil, err
			}
			key = appendKey(key, v)
		}
		gi, ok := index[string(key)]
		if !ok {
			gi = len(groups)
			groups = append(groups, group{repr: i, states: newAggStates(calls)})
			index[string(key)] = gi
		}
		states := groups[gi].states
		for ci, c := range calls {
			if c.Star {
				states[ci].add(sqltypes.Null)
				continue
			}
			v, err := ex.eval(c.Args[0], e)
			if err != nil {
				return nil, err
			}
			states[ci].add(v)
		}
	}
	// A global aggregate over zero rows still produces one group.
	if len(q.Stmt.GroupBy) == 0 && len(groups) == 0 {
		groups = append(groups, group{repr: -1, states: newAggStates(calls)})
	}
	cols, _ := ex.outputColumns(q)
	res := &Result{Columns: cols}
	width := len(q.Stmt.Items)
	vals := make([]sqltypes.Value, len(groups)*width)
	var keys []sqltypes.Value
	e.aggs = make(map[*sqlparser.FuncCall]sqltypes.Value, len(calls))
	for _, grp := range groups {
		for i, c := range calls {
			e.aggs[c] = grp.states[i].result()
		}
		if grp.repr >= 0 {
			f.bind(tupleAt(tuples, grp.repr, f.n))
		} else {
			clear(e.rows)
		}
		if q.Stmt.Having != nil {
			hv, err := ex.eval(q.Stmt.Having, e)
			if err != nil {
				return nil, err
			}
			if !hv.Bool() {
				continue
			}
		}
		k := len(res.Rows)
		row := vals[k*width : k*width : (k+1)*width]
		for _, it := range q.Stmt.Items {
			if it.Star {
				return nil, rtErrf("SELECT * cannot be combined with aggregation")
			}
			v, err := ex.eval(it.Expr, e)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		res.Rows = append(res.Rows, row)
		var err error
		if keys, err = ex.appendOrderKeys(keys, q, e); err != nil {
			return nil, err
		}
	}
	orderRows(res.Rows, keys, q.Stmt.OrderBy)
	return res, nil
}
