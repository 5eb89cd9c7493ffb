package exec

import "sqlbarber/internal/sqltypes"

// Aggregate function codes.
const (
	aggCount = iota
	aggSum
	aggAvg
	aggMin
	aggMax
)

var aggFuncs = map[string]int{
	"COUNT": aggCount, "SUM": aggSum, "AVG": aggAvg, "MIN": aggMin, "MAX": aggMax,
}

// aggCall is one compiled aggregate call: its function code and argument.
type aggCall struct {
	fn       int
	star     bool // COUNT(*)
	distinct bool
	arg      expr // nil for COUNT(*)
}

// aggState accumulates one aggregate call over one group. The zero value is
// the empty state.
type aggState struct {
	count    int64
	sum      float64
	sumInt   int64
	sumFloat bool // a float was summed: SUM is a float
	seen     bool
	best     sqltypes.Value // MIN or MAX so far
	distinct *valueIndex    // COUNT(DISTINCT) and friends: values seen
}

// add accumulates one non-star argument value.
func (st *aggState) add(ac *aggCall, v *sqltypes.Value) {
	if v.IsNull() {
		return
	}
	if ac.distinct {
		if st.distinct == nil {
			st.distinct = &valueIndex{}
		}
		if _, added := st.distinct.find(v, 0); !added {
			return
		}
	}
	st.count++
	// Accumulate only what result reads for this function.
	switch ac.fn {
	case aggSum, aggAvg:
		if v.IsNumeric() {
			st.sum += v.Float()
			if v.Kind() == sqltypes.KindInt {
				st.sumInt += v.Int()
			} else {
				st.sumFloat = true
			}
		}
	case aggMin:
		if !st.seen || v.Compare(st.best) < 0 {
			st.best = *v
		}
		st.seen = true
	case aggMax:
		if !st.seen || v.Compare(st.best) > 0 {
			st.best = *v
		}
		st.seen = true
	}
}

func (st *aggState) result(ac *aggCall) sqltypes.Value {
	switch ac.fn {
	case aggCount:
		return sqltypes.NewInt(st.count)
	case aggSum:
		if st.count == 0 {
			return sqltypes.Null
		}
		if st.sumFloat {
			return sqltypes.NewFloat(st.sum)
		}
		return sqltypes.NewInt(st.sumInt)
	case aggAvg:
		if st.count == 0 {
			return sqltypes.Null
		}
		return sqltypes.NewFloat(st.sum / float64(st.count))
	}
	if !st.seen {
		return sqltypes.Null
	}
	return st.best
}

// aggregate executes grouping and aggregation, applying HAVING and ORDER BY
// over the aggregated output. Groups keep their order of first appearance
// and are numbered densely: group g's aggregate states are
// states[g*len(p.aggs):], and its representative tuple (for evaluating
// group-key expressions) is reprs[g]. A single GROUP BY key finds its group
// through a typed valueIndex, several through one reused byte key (see
// appendKey). countOnly evaluates the output without storing it.
func (ex *executor) aggregate(p *prog, f *frame, tuples []int32, countOnly bool) (*Result, error) {
	na := len(p.aggs)
	var (
		states []aggState
		reprs  []int32
		single valueIndex
		multi  map[string]int32
		key    []byte
	)
	if len(p.groupBy) > 1 {
		multi = map[string]int32{}
	}
	e := &f.e
	for i := 0; i < len(tuples)/f.n; i++ {
		f.bind(tupleAt(tuples, i, f.n))
		next := int32(len(reprs))
		g, added := int32(0), next == 0
		switch len(p.groupBy) {
		case 0:
		case 1:
			v, err := p.groupBy[0](ex, e)
			if err != nil {
				return nil, err
			}
			g, added = single.find(&v, next)
		default:
			key = key[:0]
			for _, ge := range p.groupBy {
				v, err := ge(ex, e)
				if err != nil {
					return nil, err
				}
				key = appendKey(key, &v)
			}
			var ok bool
			if g, ok = multi[string(key)]; !ok {
				g, added = next, true
				multi[string(key)] = g
			}
		}
		if added {
			reprs = append(reprs, int32(i))
			states = append(states, make([]aggState, na)...)
		}
		st := states[int(g)*na : (int(g)+1)*na]
		for ci := range p.aggs {
			ac := &p.aggs[ci]
			if ac.star {
				st[ci].count++
				continue
			}
			v, err := ac.arg(ex, e)
			if err != nil {
				return nil, err
			}
			st[ci].add(ac, &v)
		}
	}
	// A global aggregate over zero rows still produces one group.
	if len(p.groupBy) == 0 && len(reprs) == 0 {
		reprs = append(reprs, -1)
		states = make([]aggState, na)
	}
	out := newOutput(p, len(reprs), countOnly)
	e.aggs = make([]sqltypes.Value, na)
	for g, repr := range reprs {
		for ci := range p.aggs {
			e.aggs[ci] = states[g*na+ci].result(&p.aggs[ci])
		}
		if repr >= 0 {
			f.bind(tupleAt(tuples, int(repr), f.n))
		} else {
			f.unbind()
		}
		if p.having != nil {
			t, err := p.having(ex, e)
			if err != nil {
				return nil, err
			}
			if t != triTrue {
				continue
			}
		}
		if p.starAgg {
			return nil, rtErrf("SELECT * cannot be combined with aggregation")
		}
		if err := ex.emit(p, e, &out); err != nil {
			return nil, err
		}
	}
	return out.result(p), nil
}
