package plan

import (
	"fmt"
	"math"
	"strings"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/sqlparser"
)

// Cost model constants, matching PostgreSQL's defaults.
const (
	seqPageCost       = 1.0
	randomPageCost    = 4.0
	cpuTupleCost      = 0.01
	cpuIndexTupleCost = 0.005
	cpuOperatorCost   = 0.0025
	pageSize          = 8192
)

// Node is a physical plan operator with cardinality and cost estimates.
type Node interface {
	Rows() float64
	Cost() float64
	explain(b *strings.Builder, indent int)
}

type baseNode struct {
	rows, cost float64
}

func (n *baseNode) Rows() float64 { return n.rows }
func (n *baseNode) Cost() float64 { return n.cost }

// ScanNode reads one table, applying pushed-down filters.
type ScanNode struct {
	baseNode
	TableIdx int
	Table    *catalog.Table
	RefName  string
	Filters  []sqlparser.Expr
	UseIndex bool
	IndexCol string
}

// JoinNode joins two subtrees; equi-joins hash, others nested-loop.
type JoinNode struct {
	baseNode
	JoinType sqlparser.JoinType
	Left     Node
	Right    Node
	// Equi-join key columns (valid when HasEqui).
	HasEqui           bool
	LeftKey, RightKey *sqlparser.ColumnRef
	Extra             []sqlparser.Expr // residual ON conjuncts
}

// FilterNode applies residual predicates (multi-table or subquery) above the
// join tree.
type FilterNode struct {
	baseNode
	Input Node
	Conds []sqlparser.Expr
}

// AggNode groups and aggregates.
type AggNode struct {
	baseNode
	Input   Node
	GroupBy []sqlparser.Expr
	NumAggs int
}

// DistinctNode deduplicates output rows.
type DistinctNode struct {
	baseNode
	Input Node
}

// SortNode orders output rows.
type SortNode struct {
	baseNode
	Input Node
}

// LimitNode truncates output.
type LimitNode struct {
	baseNode
	Input Node
	N     int
}

// Query is a fully planned statement: binding, conjunct placement (shared
// with the executor), the physical plan, and recursively planned subqueries.
type Query struct {
	Stmt    *sqlparser.SelectStmt
	Binding *Binding
	Root    Node
	// ScanFilters[i] are the WHERE conjuncts pushed to table instance i.
	ScanFilters [][]sqlparser.Expr
	// Residual holds conjuncts evaluated after the join tree.
	Residual []sqlparser.Expr
	// JoinEqui[i] gives the extracted equi-key pair for join clause i (nil
	// entries mean nested-loop).
	JoinEqui []*EquiKeys
	// JoinExtra[i] are residual ON conjuncts for join clause i.
	JoinExtra [][]sqlparser.Expr
	// Subplans holds the plan of each nested SELECT.
	Subplans map[*sqlparser.SelectStmt]*Query
	// Correlated reports whether this query, or any subquery nested in it,
	// references a column of an enclosing query. An uncorrelated subquery's
	// result is the same for every outer row, so the executor runs it once.
	Correlated bool

	// subOrder lists the direct subplans in syntactic order. Cost roll-ups
	// sum subplan totals in this order, never in map-iteration order, so two
	// builds of the same statement always produce bit-identical totals.
	subOrder []*Query

	// Value-independent skeleton facts, precomputed once per Build so the
	// per-probe roll-up of a compiled query touches no ASTs beyond the
	// selectivity-bearing conjuncts.
	isAgg   bool
	numAggs int
	// joinND[i] is the max(1, max(ndL, ndR)) distinct-count divisor of
	// equi-join i (0 for nested-loop joins, which never read it).
	joinND []float64
	// residSubs[i] lists, in visit order, the subplans whose cost the
	// residual filter charges for conjunct i.
	residSubs [][]*Query

	// Selectivity memos, populated only by Compile: entries whose conjunct
	// contains no parameter slot carry their (value-independent) selectivity
	// so probes skip recomputing them. Nil for plain Build.
	scanMemo  [][]memoSel
	extraMemo [][]memoSel
	residMemo []memoSel
}

// memoSel is one memoized conjunct selectivity: static conjuncts carry their
// value, dynamic ones (containing a parameter slot) are recomputed per probe.
type memoSel struct {
	dynamic bool
	sel     float64
}

// EquiKeys is an extracted equi-join condition left.col = right.col.
type EquiKeys struct {
	Left, Right *sqlparser.ColumnRef
}

// EstimatedRows returns the estimated output cardinality of the query.
func (q *Query) EstimatedRows() float64 { return q.Root.Rows() }

// TotalCost returns the estimated total plan cost, including subquery plans.
// Subplan totals accumulate in syntactic order (subOrder), so the float sum
// is reproducible; hand-assembled Query values without subOrder fall back to
// the Subplans map.
func (q *Query) TotalCost() float64 {
	c := q.Root.Cost()
	if q.subOrder == nil && len(q.Subplans) > 0 {
		for _, sp := range q.Subplans {
			c += sp.TotalCost()
		}
		return c
	}
	for _, sp := range q.subOrder {
		c += sp.TotalCost()
	}
	return c
}

// Build binds and plans a statement against the schema.
func Build(schema *catalog.Schema, stmt *sqlparser.SelectStmt) (*Query, error) {
	return buildWithParent(schema, stmt, nil)
}

func buildWithParent(schema *catalog.Schema, stmt *sqlparser.SelectStmt, parent *Scope) (*Query, error) {
	b, err := Bind(schema, stmt, parent)
	if err != nil {
		return nil, err
	}
	q := &Query{
		Stmt:     stmt,
		Binding:  b,
		Subplans: map[*sqlparser.SelectStmt]*Query{},
	}
	// Plan subqueries first (they contribute cost once each), visiting them
	// in syntactic order so every build of this statement rolls costs up in
	// the same sequence.
	for _, sub := range directSubqueries(stmt) {
		sb, ok := b.Subqueries[sub]
		if !ok {
			continue
		}
		sq, err := buildWithParent(schema, sub, sb.Scope.Parent)
		if err != nil {
			return nil, err
		}
		q.Subplans[sub] = sq
		q.subOrder = append(q.subOrder, sq)
		q.Correlated = q.Correlated || sq.Correlated
	}
	for _, ref := range b.Cols {
		if ref.Level > 0 {
			q.Correlated = true
			break
		}
	}
	q.placeConjuncts()
	q.precompute()
	q.buildTree()
	return q, nil
}

// directSubqueries collects the nested SELECTs appearing directly in the
// statement's expressions, in the order Bind visits them (select items, join
// ON conditions, WHERE, GROUP BY, HAVING, ORDER BY). It does not descend
// into the collected subqueries — their own nesting is handled recursively.
func directSubqueries(stmt *sqlparser.SelectStmt) []*sqlparser.SelectStmt {
	var out []*sqlparser.SelectStmt
	var visit func(e sqlparser.Expr)
	visit = func(e sqlparser.Expr) {
		if e == nil {
			return
		}
		switch t := e.(type) {
		case *sqlparser.BinaryExpr:
			visit(t.L)
			visit(t.R)
		case *sqlparser.UnaryExpr:
			visit(t.X)
		case *sqlparser.FuncCall:
			for _, a := range t.Args {
				visit(a)
			}
		case *sqlparser.CaseExpr:
			for _, w := range t.Whens {
				visit(w.Cond)
				visit(w.Result)
			}
			visit(t.Else)
		case *sqlparser.InExpr:
			visit(t.X)
			for _, it := range t.List {
				visit(it)
			}
			if t.Sub != nil {
				out = append(out, t.Sub)
			}
		case *sqlparser.ExistsExpr:
			if t.Sub != nil {
				out = append(out, t.Sub)
			}
		case *sqlparser.BetweenExpr:
			visit(t.X)
			visit(t.Lo)
			visit(t.Hi)
		case *sqlparser.LikeExpr:
			visit(t.X)
			visit(t.Pattern)
		case *sqlparser.IsNullExpr:
			visit(t.X)
		case *sqlparser.SubqueryExpr:
			if t.Sub != nil {
				out = append(out, t.Sub)
			}
		}
	}
	for _, it := range stmt.Items {
		visit(it.Expr)
	}
	for _, j := range stmt.Joins {
		visit(j.On)
	}
	visit(stmt.Where)
	for _, g := range stmt.GroupBy {
		visit(g)
	}
	visit(stmt.Having)
	for _, o := range stmt.OrderBy {
		visit(o.Expr)
	}
	return out
}

// precompute derives the value-independent skeleton facts the per-probe
// roll-up needs: aggregate shape, equi-join distinct counts, and the
// subplans each residual conjunct charges.
func (q *Query) precompute() {
	q.isAgg = IsAggregateQuery(q.Stmt)
	q.numAggs = q.countAggs()
	q.joinND = make([]float64, len(q.Stmt.Joins))
	for i := range q.Stmt.Joins {
		if ek := q.JoinEqui[i]; ek != nil {
			ndL := q.keyDistinct(ek.Left)
			ndR := q.keyDistinct(ek.Right)
			q.joinND[i] = math.Max(1, math.Max(ndL, ndR))
		}
	}
	q.residSubs = make([][]*Query, len(q.Residual))
	for ci, c := range q.Residual {
		q.residSubs[ci] = q.subplansIn(c)
	}
}

// conjuncts flattens an AND tree.
func conjuncts(e sqlparser.Expr) []sqlparser.Expr {
	if e == nil {
		return nil
	}
	if be, ok := e.(*sqlparser.BinaryExpr); ok && be.Op == sqlparser.OpAnd {
		return append(conjuncts(be.L), conjuncts(be.R)...)
	}
	return []sqlparser.Expr{e}
}

// placeConjuncts classifies WHERE conjuncts into per-scan filters and
// residual predicates, and extracts equi-keys from ON conditions.
func (q *Query) placeConjuncts() {
	n := len(q.Binding.Scope.Tables)
	q.ScanFilters = make([][]sqlparser.Expr, n)
	for _, c := range conjuncts(q.Stmt.Where) {
		tables := q.Binding.tablesOf(c)
		if len(tables) == 1 && !containsSubquery(c) {
			pushed := false
			for ti := range tables {
				// A WHERE predicate must not be pushed below the nullable
				// (right) side of a LEFT JOIN: null-extended rows would
				// escape it. Table instance ti (ti >= 1) is introduced by
				// join clause ti-1.
				if ti >= 1 && q.Stmt.Joins[ti-1].Type == sqlparser.JoinLeft {
					break
				}
				q.ScanFilters[ti] = append(q.ScanFilters[ti], c)
				pushed = true
			}
			if pushed {
				continue
			}
		}
		q.Residual = append(q.Residual, c)
	}
	q.JoinEqui = make([]*EquiKeys, len(q.Stmt.Joins))
	q.JoinExtra = make([][]sqlparser.Expr, len(q.Stmt.Joins))
	for i, j := range q.Stmt.Joins {
		// Tables available on the left side: instances 0..i; right side
		// is instance i+1.
		rightIdx := i + 1
		for _, c := range conjuncts(j.On) {
			if ek := q.extractEqui(c, rightIdx); ek != nil && q.JoinEqui[i] == nil {
				q.JoinEqui[i] = ek
				continue
			}
			q.JoinExtra[i] = append(q.JoinExtra[i], c)
		}
	}
}

func containsSubquery(e sqlparser.Expr) bool {
	switch t := e.(type) {
	case *sqlparser.InExpr:
		if t.Sub != nil {
			return true
		}
		for _, it := range t.List {
			if containsSubquery(it) {
				return true
			}
		}
		return containsSubquery(t.X)
	case *sqlparser.ExistsExpr:
		return true
	case *sqlparser.SubqueryExpr:
		return true
	case *sqlparser.BinaryExpr:
		return containsSubquery(t.L) || containsSubquery(t.R)
	case *sqlparser.UnaryExpr:
		return containsSubquery(t.X)
	case *sqlparser.BetweenExpr:
		return containsSubquery(t.X) || containsSubquery(t.Lo) || containsSubquery(t.Hi)
	case *sqlparser.LikeExpr:
		return containsSubquery(t.X)
	case *sqlparser.IsNullExpr:
		return containsSubquery(t.X)
	case *sqlparser.CaseExpr:
		for _, w := range t.Whens {
			if containsSubquery(w.Cond) || containsSubquery(w.Result) {
				return true
			}
		}
		return containsSubquery(t.Else)
	case *sqlparser.FuncCall:
		for _, a := range t.Args {
			if containsSubquery(a) {
				return true
			}
		}
	}
	return false
}

// extractEqui recognizes `a.x = b.y` where one side lives in the tables
// joined so far and the other in the newly joined table.
func (q *Query) extractEqui(c sqlparser.Expr, rightIdx int) *EquiKeys {
	be, ok := c.(*sqlparser.BinaryExpr)
	if !ok || be.Op != sqlparser.OpEq {
		return nil
	}
	lc, lok := be.L.(*sqlparser.ColumnRef)
	rc, rok := be.R.(*sqlparser.ColumnRef)
	if !lok || !rok {
		return nil
	}
	lref, lin := q.Binding.Cols[lc]
	rref, rin := q.Binding.Cols[rc]
	if !lin || !rin || lref.Level != 0 || rref.Level != 0 {
		return nil
	}
	switch {
	case lref.TableIdx < rightIdx && rref.TableIdx == rightIdx:
		return &EquiKeys{Left: lc, Right: rc}
	case rref.TableIdx < rightIdx && lref.TableIdx == rightIdx:
		return &EquiKeys{Left: rc, Right: lc}
	}
	return nil
}

// buildTree assembles the physical plan bottom-up. All estimation arithmetic
// lives in the shared (rows, cost) estimators below — buildTree only wraps
// their results in Node structures, so a compiled roll-up (estimateRollup)
// that runs the same estimators reproduces these numbers bit-for-bit.
func (q *Query) buildTree() {
	se := q.scanEstimate(nil, 0)
	var node Node = q.newScanNode(0, se)
	for i := range q.Stmt.Joins {
		rE := q.scanEstimate(nil, i+1)
		right := q.newScanNode(i+1, rE)
		j := &JoinNode{JoinType: q.Stmt.Joins[i].Type, Left: node, Right: right}
		if ek := q.JoinEqui[i]; ek != nil {
			j.HasEqui = true
			j.LeftKey, j.RightKey = ek.Left, ek.Right
		}
		j.rows, j.cost = q.joinEstimate(nil, i, node.Rows(), node.Cost(), rE)
		node = j
	}
	if len(q.Residual) > 0 {
		f := &FilterNode{Input: node, Conds: q.Residual}
		f.rows, f.cost = q.residualEstimate(nil, node.Rows(), node.Cost())
		node = f
	}
	if q.isAgg {
		a := &AggNode{Input: node, GroupBy: q.Stmt.GroupBy, NumAggs: q.numAggs}
		a.rows, a.cost = q.aggEstimate(node.Rows(), node.Cost())
		node = a
		if q.Stmt.Having != nil {
			f := &FilterNode{Input: node, Conds: []sqlparser.Expr{q.Stmt.Having}}
			f.rows, f.cost = havingEstimate(node.Rows(), node.Cost())
			node = f
		}
	}
	if q.Stmt.Distinct {
		d := &DistinctNode{Input: node}
		d.rows = node.Rows()
		d.cost = distinctCost(node.Rows(), node.Cost())
		node = d
	}
	if len(q.Stmt.OrderBy) > 0 {
		s := &SortNode{Input: node}
		s.rows = node.Rows()
		s.cost = node.Cost() + sortCost(node.Rows())
		node = s
	}
	if q.Stmt.Limit >= 0 {
		l := &LimitNode{Input: node, N: q.Stmt.Limit}
		l.rows = math.Min(node.Rows(), float64(q.Stmt.Limit))
		l.cost = node.Cost()
		node = l
	}
	q.Root = node
}

// estimateRollup recomputes the root operator's (rows, cost) under the probe
// values in ev without allocating a plan tree. It walks exactly the operator
// sequence buildTree assembles and calls the same estimators, so its numbers
// equal a fresh Build of the value-substituted statement bit-for-bit.
func (q *Query) estimateRollup(ev *valueEnv) (rows, cost float64) {
	se := q.scanEstimate(ev, 0)
	rows, cost = se.rows, se.cost
	for i := range q.Stmt.Joins {
		rE := q.scanEstimate(ev, i+1)
		rows, cost = q.joinEstimate(ev, i, rows, cost, rE)
	}
	if len(q.Residual) > 0 {
		rows, cost = q.residualEstimate(ev, rows, cost)
	}
	if q.isAgg {
		rows, cost = q.aggEstimate(rows, cost)
		if q.Stmt.Having != nil {
			rows, cost = havingEstimate(rows, cost)
		}
	}
	if q.Stmt.Distinct {
		cost = distinctCost(rows, cost)
	}
	if len(q.Stmt.OrderBy) > 0 {
		cost = cost + sortCost(rows)
	}
	if q.Stmt.Limit >= 0 {
		rows = math.Min(rows, float64(q.Stmt.Limit))
	}
	return rows, cost
}

// conjSel returns one conjunct's selectivity, serving memoized static values
// when the memo says the conjunct carries no parameter slot.
func (q *Query) conjSel(ev *valueEnv, memo []memoSel, i int, c sqlparser.Expr) float64 {
	if memo != nil && !memo[i].dynamic {
		return memo[i].sel
	}
	return q.Binding.selectivity(ev, c)
}

// residualEstimate applies the residual FilterNode arithmetic.
func (q *Query) residualEstimate(ev *valueEnv, inRows, inCost float64) (rows, cost float64) {
	sel := 1.0
	for ci, c := range q.Residual {
		sel *= q.conjSel(ev, q.residMemo, ci, c)
	}
	subCost := 0.0
	for ci := range q.Residual {
		// Group per conjunct before adding to subCost — float addition is
		// not associative, and this preserves the historical summation shape.
		c := 0.0
		for _, sp := range q.residSubs[ci] {
			c += ev.subTotal(sp)
		}
		subCost += c
	}
	rows = math.Max(1, inRows*sel)
	cost = inCost + inRows*cpuOperatorCost*float64(len(q.Residual)) + subCost
	return rows, cost
}

// aggEstimate applies the AggNode arithmetic.
func (q *Query) aggEstimate(inRows, inCost float64) (rows, cost float64) {
	groups := 1.0
	if len(q.Stmt.GroupBy) > 0 {
		groups = q.groupEstimate(inRows)
	}
	rows = groups
	cost = inCost +
		inRows*cpuOperatorCost*float64(q.numAggs+len(q.Stmt.GroupBy)+1) +
		groups*cpuTupleCost
	return rows, cost
}

// havingEstimate applies the HAVING FilterNode arithmetic.
func havingEstimate(inRows, inCost float64) (rows, cost float64) {
	return math.Max(1, inRows*defaultIneqSel), inCost + inRows*cpuOperatorCost
}

// distinctCost applies the DistinctNode cost arithmetic (rows pass through).
func distinctCost(rows, cost float64) float64 {
	return cost + rows*cpuOperatorCost*2
}

func sortCost(rows float64) float64 {
	if rows < 2 {
		return cpuOperatorCost
	}
	return 2 * rows * math.Log2(rows) * cpuOperatorCost
}

func (q *Query) countAggs() int {
	n := 0
	count := func(e sqlparser.Expr) {
		if e == nil {
			return
		}
		if containsAggregate(e) {
			n++
		}
	}
	for _, it := range q.Stmt.Items {
		count(it.Expr)
	}
	count(q.Stmt.Having)
	if n == 0 {
		n = 1
	}
	return n
}

// groupEstimate bounds the number of groups by the product of group-key
// distinct counts, capped at input rows (PostgreSQL's heuristic).
func (q *Query) groupEstimate(inRows float64) float64 {
	prod := 1.0
	for _, g := range q.Stmt.GroupBy {
		if col := q.Binding.column(g); col != nil && col.Stats.NDistinct > 0 {
			prod *= float64(col.Stats.NDistinct)
		} else {
			prod *= math.Max(1, inRows/10)
		}
		if prod > inRows {
			return math.Max(1, inRows)
		}
	}
	return math.Max(1, math.Min(prod, inRows))
}

// scanEst is the value-dependent outcome of estimating one table scan.
type scanEst struct {
	rows, cost float64
	useIndex   bool
	idxCol     string
}

// scanEstimate applies the ScanNode arithmetic: per-filter selectivities
// (memoized when static), the sequential-scan cost, and the sargable
// index-scan flip re-evaluated at its decision point per probe.
func (q *Query) scanEstimate(ev *valueEnv, tableIdx int) scanEst {
	inst := q.Binding.Scope.Tables[tableIdx]
	filters := q.ScanFilters[tableIdx]
	var memo []memoSel
	if q.scanMemo != nil {
		memo = q.scanMemo[tableIdx]
	}
	rows := float64(inst.Table.RowCount)
	sel := 1.0
	bestIdxSel := 1.0
	bestIdxCol := ""
	for fi, f := range filters {
		s := q.conjSel(ev, memo, fi, f)
		sel *= s
		if col, ok := sargableIndexColumn(q.Binding, ev, f); ok && s < bestIdxSel {
			bestIdxSel = s
			bestIdxCol = col
		}
	}
	est := scanEst{rows: math.Max(1, rows*sel)}
	pages := math.Max(1, float64(inst.Table.SizeBytes)/pageSize)
	seqCost := pages*seqPageCost + rows*cpuTupleCost + rows*cpuOperatorCost*float64(len(filters))
	est.cost = seqCost
	if bestIdxCol != "" && bestIdxSel < 0.2 && rows > 64 {
		idxRows := math.Max(1, rows*bestIdxSel)
		idxCost := math.Ceil(math.Log2(rows+1))*cpuOperatorCost*4 +
			idxRows*(cpuIndexTupleCost+randomPageCost*pages/rows) +
			idxRows*cpuOperatorCost*float64(len(filters))
		if idxCost < seqCost {
			est.cost = idxCost
			est.useIndex = true
			est.idxCol = bestIdxCol
		}
	}
	return est
}

// newScanNode wraps a scan estimate in its plan node.
func (q *Query) newScanNode(tableIdx int, est scanEst) *ScanNode {
	inst := q.Binding.Scope.Tables[tableIdx]
	n := &ScanNode{
		TableIdx: tableIdx,
		Table:    inst.Table,
		RefName:  inst.RefName,
		Filters:  q.ScanFilters[tableIdx],
		UseIndex: est.useIndex,
		IndexCol: est.idxCol,
	}
	n.rows, n.cost = est.rows, est.cost
	return n
}

// sargableIndexColumn reports an indexed column usable for an index scan
// when the filter has the shape `col op const` (or BETWEEN) on it.
func sargableIndexColumn(b *Binding, ev *valueEnv, f sqlparser.Expr) (string, bool) {
	var colExpr sqlparser.Expr
	switch t := f.(type) {
	case *sqlparser.BinaryExpr:
		if !t.Op.IsComparison() {
			return "", false
		}
		if _, ok := ev.constValue(t.R); ok {
			colExpr = t.L
		} else if _, ok := ev.constValue(t.L); ok {
			colExpr = t.R
		}
	case *sqlparser.BetweenExpr:
		colExpr = t.X
	case *sqlparser.InExpr:
		if t.Sub == nil {
			colExpr = t.X
		}
	}
	if colExpr == nil {
		return "", false
	}
	col := b.column(colExpr)
	if col == nil || !col.Indexed {
		return "", false
	}
	return col.Name, true
}

// joinEstimate applies the JoinNode arithmetic for join clause joinIdx given
// the left subtree's (rows, cost) and the right scan's estimate.
func (q *Query) joinEstimate(ev *valueEnv, joinIdx int, lRows, lCost float64, r scanEst) (rows, cost float64) {
	rRows := r.rows
	var memo []memoSel
	if q.extraMemo != nil {
		memo = q.extraMemo[joinIdx]
	}
	extraSel := 1.0
	for ci, c := range q.JoinExtra[joinIdx] {
		extraSel *= q.conjSel(ev, memo, ci, c)
	}
	if q.JoinEqui[joinIdx] != nil {
		nd := q.joinND[joinIdx]
		rows = math.Max(1, lRows*rRows/nd*extraSel)
		cost = lCost + r.cost +
			(lRows+rRows)*cpuTupleCost + // probe + build tuple handling
			rRows*cpuOperatorCost*2 + // hash build
			rows*cpuOperatorCost
	} else {
		// Nested loop with arbitrary ON predicate.
		rows = math.Max(1, lRows*rRows*defaultIneqSel*extraSel)
		cost = lCost + r.cost + lRows*rRows*cpuOperatorCost
	}
	if q.Stmt.Joins[joinIdx].Type == sqlparser.JoinLeft && rows < lRows {
		rows = lRows
	}
	return rows, cost
}

func (q *Query) keyDistinct(c *sqlparser.ColumnRef) float64 {
	ref, ok := q.Binding.Cols[c]
	if !ok || ref.Level != 0 {
		return 1
	}
	col := q.Binding.Scope.Tables[ref.TableIdx].Table.Columns[ref.ColIdx]
	return math.Max(1, float64(col.Stats.NDistinct))
}

// subplansIn lists, in visit order, the subplans a residual conjunct
// charges (the subqueries its evaluation would run). The visit order is the
// summation order of their costs, so it must stay deterministic.
func (q *Query) subplansIn(c sqlparser.Expr) []*Query {
	var subs []*Query
	var visit func(e sqlparser.Expr)
	addSub := func(s *sqlparser.SelectStmt) {
		if s == nil {
			return
		}
		if sp, ok := q.Subplans[s]; ok {
			subs = append(subs, sp)
		}
	}
	visit = func(e sqlparser.Expr) {
		if e == nil {
			return
		}
		switch t := e.(type) {
		case *sqlparser.InExpr:
			addSub(t.Sub)
			visit(t.X)
		case *sqlparser.ExistsExpr:
			addSub(t.Sub)
		case *sqlparser.SubqueryExpr:
			addSub(t.Sub)
		case *sqlparser.BinaryExpr:
			visit(t.L)
			visit(t.R)
		case *sqlparser.UnaryExpr:
			visit(t.X)
		}
	}
	visit(c)
	return subs
}

// ---- EXPLAIN ----

// Explain renders the plan tree in a PostgreSQL-like format.
func (q *Query) Explain() string {
	var b strings.Builder
	q.Root.explain(&b, 0)
	return b.String()
}

func indentTo(b *strings.Builder, indent int) {
	for i := 0; i < indent; i++ {
		b.WriteString("  ")
	}
	if indent > 0 {
		b.WriteString("-> ")
	}
}

func (n *ScanNode) explain(b *strings.Builder, indent int) {
	indentTo(b, indent)
	kind := "Seq Scan"
	if n.UseIndex {
		kind = fmt.Sprintf("Index Scan using idx_%s_%s", n.Table.Name, n.IndexCol)
	}
	fmt.Fprintf(b, "%s on %s", kind, n.Table.Name)
	if !strings.EqualFold(n.RefName, n.Table.Name) {
		fmt.Fprintf(b, " %s", n.RefName)
	}
	fmt.Fprintf(b, "  (cost=%.2f rows=%.0f)\n", n.cost, n.rows)
	for _, f := range n.Filters {
		indentTo(b, indent+1)
		fmt.Fprintf(b, "Filter: %s\n", f.SQL())
	}
}

func (n *JoinNode) explain(b *strings.Builder, indent int) {
	indentTo(b, indent)
	kind := "Nested Loop"
	if n.HasEqui {
		kind = "Hash Join"
	}
	if n.JoinType == sqlparser.JoinLeft {
		kind += " Left"
	}
	fmt.Fprintf(b, "%s  (cost=%.2f rows=%.0f)", kind, n.cost, n.rows)
	if n.HasEqui {
		fmt.Fprintf(b, "  Cond: %s = %s", n.LeftKey.SQL(), n.RightKey.SQL())
	}
	b.WriteByte('\n')
	n.Left.explain(b, indent+1)
	n.Right.explain(b, indent+1)
}

func (n *FilterNode) explain(b *strings.Builder, indent int) {
	indentTo(b, indent)
	parts := make([]string, len(n.Conds))
	for i, c := range n.Conds {
		parts[i] = c.SQL()
	}
	fmt.Fprintf(b, "Filter  (cost=%.2f rows=%.0f)  Cond: %s\n", n.cost, n.rows, strings.Join(parts, " AND "))
	n.Input.explain(b, indent+1)
}

func (n *AggNode) explain(b *strings.Builder, indent int) {
	indentTo(b, indent)
	if len(n.GroupBy) > 0 {
		keys := make([]string, len(n.GroupBy))
		for i, g := range n.GroupBy {
			keys[i] = g.SQL()
		}
		fmt.Fprintf(b, "HashAggregate  (cost=%.2f rows=%.0f)  Key: %s\n", n.cost, n.rows, strings.Join(keys, ", "))
	} else {
		fmt.Fprintf(b, "Aggregate  (cost=%.2f rows=%.0f)\n", n.cost, n.rows)
	}
	n.Input.explain(b, indent+1)
}

func (n *DistinctNode) explain(b *strings.Builder, indent int) {
	indentTo(b, indent)
	fmt.Fprintf(b, "Unique  (cost=%.2f rows=%.0f)\n", n.cost, n.rows)
	n.Input.explain(b, indent+1)
}

func (n *SortNode) explain(b *strings.Builder, indent int) {
	indentTo(b, indent)
	fmt.Fprintf(b, "Sort  (cost=%.2f rows=%.0f)\n", n.cost, n.rows)
	n.Input.explain(b, indent+1)
}

func (n *LimitNode) explain(b *strings.Builder, indent int) {
	indentTo(b, indent)
	fmt.Fprintf(b, "Limit %d  (cost=%.2f rows=%.0f)\n", n.N, n.cost, n.rows)
	n.Input.explain(b, indent+1)
}
