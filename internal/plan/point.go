package plan

import (
	"math"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/sqltypes"
)

// point is the point interpretation of the cost model: one environment's
// exact float64 estimate. Each method is the single float64 operation the
// estimator formula names, so a point roll-up is plain float64 arithmetic.
type point float64

func (point) of(x float64) point      { return point(x) }
func (a point) add(b point) point     { return a + b }
func (a point) sub(b point) point     { return a - b }
func (a point) mul(b point) point     { return a * b }
func (a point) scale(c float64) point { return a * point(c) }
func (a point) div(c float64) point   { return a / point(c) }
func (a point) clamp01() point        { return point(clamp01(float64(a))) }
func (a point) log2() point           { return point(math.Log2(float64(a))) }

// max and min keep a unless b compares beyond it — the `if a < b { a = b }`
// the estimator formulas are written with — so a NaN receiver carries
// through and a NaN argument is ignored.
func (a point) max(b point) point {
	if a < b {
		return b
	}
	return a
}

func (a point) min(b point) point {
	if b < a {
		return b
	}
	return a
}

func (a point) less(b point) outcome {
	if a < b {
		return yes
	}
	return no
}

// hull is never reached: a point environment takes exactly one branch of
// every value-dependent condition, so no two branch values meet.
func (a point) hull(point) point {
	panic("plan: a point environment reached two branches")
}

// valueEnv is the point domain's environment. It overlays one probe's
// parameter values on a compiled statement's literal slots, so a probe
// never reads or writes the shared AST's slot values; the zero valueEnv
// reads every literal as written, which is what a plain Build does. When
// tree is set, the roll-up's operator estimates assemble Build's plan tree.
type valueEnv struct {
	// slots maps each placeholder-backed literal to its parameter index.
	slots map[*sqlparser.Literal]int
	// vals holds the normalized parameter values for this probe.
	vals []sqltypes.Value
	tree *treeBuilder
}

// constValue extracts a literal constant, or ok=false. Slot literals read
// their value from the environment (never from the mutable AST field), so
// concurrent probes on one compiled statement are race-free.
func (ev valueEnv) constValue(e sqlparser.Expr) (sqltypes.Value, bool) {
	if lit, ok := e.(*sqlparser.Literal); ok {
		if i, ok := ev.slots[lit]; ok {
			return ev.vals[i], true
		}
		return lit.Value, true
	}
	if u, ok := e.(*sqlparser.UnaryExpr); ok && u.Op == "-" {
		if v, ok := ev.constValue(u.X); ok && v.IsNumeric() {
			return v.Neg(), true
		}
	}
	return sqltypes.Null, false
}

func (ev valueEnv) constOf(e sqlparser.Expr) constRange {
	if v, ok := ev.constValue(e); ok {
		return constRange{kind: crPoint, val: v}
	}
	return constRange{}
}

func (valueEnv) eqSel(b *Binding, col *catalog.Column, k constRange) point {
	return point(b.eqSel(col, k.val))
}

func (valueEnv) fracBelow(st *catalog.ColumnStats, k constRange) point {
	return point(fracBelowX(st, k.val.Float()))
}

func (ev valueEnv) node(q *Query, op opKind, i int, rows, cost point, idxCol string) {
	if ev.tree != nil {
		ev.tree.add(q, op, i, baseNode{rows: float64(rows), cost: float64(cost)}, idxCol)
	}
}

// treeBuilder assembles Build's plan tree from the operator estimates the
// roll-up reports, in pipeline order: each plan's first scan, then every
// right-hand scan followed by its join, then the operators above the joins.
// The last node reported for a plan is its root.
type treeBuilder struct {
	cur   Node      // the pipeline assembled so far
	right *ScanNode // the right input of the next join
}

func (tb *treeBuilder) add(q *Query, op opKind, i int, est baseNode, idxCol string) {
	var n Node
	switch op {
	case opScan:
		inst := q.Binding.Scope.Tables[i]
		s := &ScanNode{baseNode: est, TableIdx: i, Table: inst.Table, RefName: inst.RefName,
			Filters: q.ScanFilters[i], UseIndex: idxCol != "", IndexCol: idxCol}
		if i > 0 {
			tb.right = s
			return
		}
		n = s
	case opJoin:
		j := &JoinNode{baseNode: est, JoinType: q.Stmt.Joins[i].Type, Left: tb.cur, Right: tb.right}
		if ek := q.JoinEqui[i]; ek != nil {
			j.HasEqui = true
			j.LeftKey, j.RightKey = ek.Left, ek.Right
		}
		n = j
	case opFilter:
		n = &FilterNode{baseNode: est, Input: tb.cur, Conds: q.Residual}
	case opAgg:
		n = &AggNode{baseNode: est, Input: tb.cur, GroupBy: q.Stmt.GroupBy, NumAggs: q.numAggs}
	case opHaving:
		n = &FilterNode{baseNode: est, Input: tb.cur, Conds: []sqlparser.Expr{q.Stmt.Having}}
	case opDistinct:
		n = &DistinctNode{baseNode: est, Input: tb.cur}
	case opSort:
		n = &SortNode{baseNode: est, Input: tb.cur}
	case opLimit:
		n = &LimitNode{baseNode: est, Input: tb.cur, N: q.Stmt.Limit}
	}
	tb.cur, q.Root = n, n
}
