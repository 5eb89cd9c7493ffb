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
	// Aggregated reports whether the query needs an aggregation step: it
	// groups, or aggregates in its select list or HAVING.
	Aggregated bool

	// subOrder lists the direct subplans in syntactic order. Cost roll-ups
	// sum subplan totals in this order, never in map-iteration order, so two
	// builds of the same statement always produce bit-identical totals.
	subOrder []*Query
	// pos is this plan's position in its statement's post-ordered subplan
	// tree (postOrder), where the roll-up keeps its total.
	pos int

	// Value-independent skeleton facts, precomputed once per Build so the
	// per-probe roll-up of a compiled query touches no ASTs beyond the
	// selectivity-bearing conjuncts.
	numAggs int
	// joinND[i] is the max(1, max(ndL, ndR)) distinct-count divisor of
	// equi-join i (0 for nested-loop joins, which never read it).
	joinND []float64
	// residSubs[i] lists, in walk order, the subplans whose cost the
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
// is reproducible.
func (q *Query) TotalCost() float64 {
	c := q.Root.Cost()
	for _, sp := range q.subOrder {
		c += sp.TotalCost()
	}
	return c
}

// Build binds and plans a statement against the schema: the skeleton of
// every (sub)plan, then one point roll-up over the post-ordered subplan tree
// that assembles each plan's operator tree from its estimates.
func Build(schema *catalog.Schema, stmt *sqlparser.SelectStmt) (*Query, error) {
	q, _, err := build(schema, stmt)
	return q, err
}

// build is Build also returning the post-ordered subplan tree.
func build(schema *catalog.Schema, stmt *sqlparser.SelectStmt) (*Query, []*Query, error) {
	q, err := buildWithParent(schema, stmt, nil)
	if err != nil {
		return nil, nil, err
	}
	post := postOrder(nil, q)
	estimate[point](valueEnv{tree: &treeBuilder{}}, post)
	return q, post, nil
}

// postOrder flattens the subplan tree, children before parents in syntactic
// order, and records each plan's position.
func postOrder(out []*Query, q *Query) []*Query {
	for _, sp := range q.subOrder {
		out = postOrder(out, sp)
	}
	q.pos = len(out)
	return append(out, q)
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
	// Plan subqueries first, visiting them in syntactic order so every
	// build of this statement rolls costs up in the same sequence.
	for _, sub := range stmt.DirectSubqueries() {
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
	return q, nil
}

// precompute derives the value-independent skeleton facts the per-probe
// roll-up needs: aggregate shape and equi-join distinct counts.
func (q *Query) precompute() {
	q.Aggregated = isAggregateQuery(q.Stmt)
	q.numAggs = q.countAggs()
	q.joinND = make([]float64, len(q.Stmt.Joins))
	for i := range q.Stmt.Joins {
		if ek := q.JoinEqui[i]; ek != nil {
			ndL := q.keyDistinct(ek.Left)
			ndR := q.keyDistinct(ek.Right)
			q.joinND[i] = math.Max(1, math.Max(ndL, ndR))
		}
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
// residual predicates (a conjunct with a subquery is always residual, and
// records the subplans it charges), and extracts equi-keys from ON
// conditions.
func (q *Query) placeConjuncts() {
	n := len(q.Binding.Scope.Tables)
	q.ScanFilters = make([][]sqlparser.Expr, n)
	for _, c := range conjuncts(q.Stmt.Where) {
		tables := q.Binding.tablesOf(c)
		subs := q.subplansIn(c)
		if len(tables) == 1 && len(subs) == 0 {
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
		q.residSubs = append(q.residSubs, subs)
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

func (q *Query) countAggs() int {
	n := 0
	count := func(e sqlparser.Expr) {
		if e == nil {
			return
		}
		if sqlparser.ContainsAggregate(e) {
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

func (q *Query) keyDistinct(c *sqlparser.ColumnRef) float64 {
	ref, ok := q.Binding.Cols[c]
	if !ok || ref.Level != 0 {
		return 1
	}
	col := q.Binding.Scope.Tables[ref.TableIdx].Table.Columns[ref.ColIdx]
	return math.Max(1, float64(col.Stats.NDistinct))
}

// subplansIn lists, in walk order, the subplans a residual conjunct charges
// (the subqueries its evaluation would run). The walk order is the
// summation order of their costs, so it must stay deterministic.
func (q *Query) subplansIn(c sqlparser.Expr) []*Query {
	var subs []*Query
	sqlparser.Walk(c, nil, func(s *sqlparser.SelectStmt) {
		if sp, ok := q.Subplans[s]; ok {
			subs = append(subs, sp)
		}
	})
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
