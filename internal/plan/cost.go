package plan

// The cost model is written once, as generic code over a numeric domain T,
// and interpreted twice:
//
//   - point (point.go): one probe's exact float64 estimates. Build,
//     EstimateWith and CostWith run it; a point environment reads each
//     literal slot as one value and takes exactly one branch everywhere.
//   - ival (interval.go): sound [lo, hi] bounds on every probe's estimates
//     over interval-valued slot domains. EstimateBounds runs it.
//
// Everything below — the post-order subplan driver, scan costing with the
// sargable index-scan flip, joins, the residual filter, aggregation,
// HAVING, DISTINCT, sort and limit — is shared, as are the selectivity
// combinators in estimate.go. Only what a slot reads (domain.constOf) and
// the per-value estimator leaves (domain.eqSel, domain.fracBelow, num.log2)
// differ per domain. A value-dependent condition evaluates to an outcome:
// where a domain reaches both branches the code takes the hull of both, so
// the same text is the exact estimator for points and the abstract one for
// intervals.

import (
	"math"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/sqlparser"
)

// num is the arithmetic of a numeric domain: each method is one IEEE-754
// operation on points, and its endpoint-wise interval extension on ival.
type num[T any] interface {
	of(x float64) T // the constant x
	add(b T) T
	sub(b T) T
	mul(b T) T
	scale(c float64) T // multiply by the constant c
	div(c float64) T   // divide by the positive constant c
	max(b T) T         // a, or b where a < b
	min(b T) T         // a, or b where b < a
	clamp01() T
	log2() T
	hull(b T) T       // the join of two reachable branches' values
	less(b T) outcome // whether a < b
}

// domain is the environment side of an interpretation: what a constant
// expression reads, the estimator leaves that consume it, and a hook that
// receives each plan operator's estimate as the roll-up produces it.
type domain[T any] interface {
	constOf(e sqlparser.Expr) constRange
	eqSel(b *Binding, col *catalog.Column, k constRange) T
	fracBelow(st *catalog.ColumnStats, k constRange) T
	node(q *Query, op opKind, i int, rows, cost T, idxCol string)
}

// outcome is the set of truth values a value-dependent condition takes
// across a domain's environments.
type outcome uint8

const (
	yes   outcome = 1 << iota // true in some environment
	no                        // false in some environment
	maybe = yes | no
)

// orElse folds a second reachable branch's value alt into out: alt alone
// when out's branch was not reached, otherwise the hull of both.
func orElse[T num[T]](out T, reached bool, alt T) T {
	if !reached {
		return alt
	}
	return out.hull(alt)
}

// opKind names the plan operator a roll-up step estimated.
type opKind uint8

const (
	opScan opKind = iota
	opJoin
	opFilter
	opAgg
	opHaving
	opDistinct
	opSort
	opLimit
)

// estimate rolls the cost model up over a post-ordered subplan tree
// (subplans before parents in syntactic order, the root last) and returns
// the root's rows and its total cost including every subplan. Subplan
// totals are kept by post-order position and summed in syntactic order, so
// every evaluation of a statement adds them up in the same sequence.
func estimate[T num[T], D domain[T]](d D, post []*Query) (rows, total T) {
	var tot []T
	if len(post) > 1 {
		tot = make([]T, len(post)-1)
	}
	for i, q := range post {
		rows, total = rollup[T](d, q, tot)
		for _, sp := range q.subOrder {
			total = total.add(tot[sp.pos])
		}
		if i < len(tot) {
			tot[i] = total
		}
	}
	return rows, total
}

// rollup estimates one plan's operator pipeline — scans and joins, the
// residual filter, aggregation, HAVING, DISTINCT, sort and limit — and
// returns the root operator's rows and cost. tot holds the totals of the
// subplans estimated so far.
func rollup[T num[T], D domain[T]](d D, q *Query, tot []T) (rows, cost T) {
	var z T
	s := scan[T](d, q, 0)
	rows, cost = s.rows, s.cost
	d.node(q, opScan, 0, rows, cost, s.idxCol)
	for i := range q.Stmt.Joins {
		r := scan[T](d, q, i+1)
		d.node(q, opScan, i+1, r.rows, r.cost, r.idxCol)
		rows, cost = join[T](d, q, i, rows, cost, r)
		d.node(q, opJoin, i, rows, cost, "")
	}
	if n := len(q.Residual); n > 0 {
		sel, subCost := z.of(1), z.of(0)
		for ci, c := range q.Residual {
			sel = sel.mul(conjSel[T](d, q.Binding, q.residMemo, ci, c))
			// Each conjunct's subplans are summed before they join subCost:
			// float addition is not associative.
			sc := z.of(0)
			for _, sp := range q.residSubs[ci] {
				sc = sc.add(tot[sp.pos])
			}
			subCost = subCost.add(sc)
		}
		rows, cost = rows.mul(sel).max(z.of(1)), cost.add(rows.scale(cpuOperatorCost).scale(float64(n))).add(subCost)
		d.node(q, opFilter, 0, rows, cost, "")
	}
	if q.Aggregated {
		groups := z.of(1)
		if len(q.Stmt.GroupBy) > 0 {
			groups = groupCount(q, rows)
		}
		rows, cost = groups, cost.add(rows.scale(cpuOperatorCost).scale(float64(q.numAggs+len(q.Stmt.GroupBy)+1))).add(groups.scale(cpuTupleCost))
		d.node(q, opAgg, 0, rows, cost, "")
		if q.Stmt.Having != nil {
			rows, cost = rows.scale(defaultIneqSel).max(z.of(1)), cost.add(rows.scale(cpuOperatorCost))
			d.node(q, opHaving, 0, rows, cost, "")
		}
	}
	if q.Stmt.Distinct {
		cost = cost.add(rows.scale(cpuOperatorCost).scale(2))
		d.node(q, opDistinct, 0, rows, cost, "")
	}
	if len(q.Stmt.OrderBy) > 0 {
		cost = cost.add(sortCost(rows))
		d.node(q, opSort, 0, rows, cost, "")
	}
	if q.Stmt.Limit >= 0 {
		rows = rows.min(z.of(float64(q.Stmt.Limit)))
		d.node(q, opLimit, 0, rows, cost, "")
	}
	return rows, cost
}

// conjSel returns one conjunct's selectivity, serving memoized static values
// when the memo says the conjunct carries no parameter slot.
func conjSel[T num[T], D domain[T]](d D, b *Binding, memo []memoSel, i int, c sqlparser.Expr) T {
	if memo != nil && !memo[i].dynamic {
		var z T
		return z.of(memo[i].sel)
	}
	return selectivity[T](d, b, c)
}

// scanEst is one table scan's estimate.
type scanEst[T any] struct {
	rows, cost T
	// idxCol is the column a point environment's index scan uses, "" for a
	// sequential scan.
	idxCol string
}

// scan estimates one table scan: the filters' combined selectivity, the
// sequential-scan cost, and the sargable index-scan flip re-evaluated at
// its decision point. The index scan is taken when the lowest selectivity
// among sargable filters is below 0.2 on a table of more than 64 rows and it
// costs less than the sequential scan.
func scan[T num[T], D domain[T]](d D, q *Query, ti int) scanEst[T] {
	var z T
	inst := q.Binding.Scope.Tables[ti]
	filters := q.ScanFilters[ti]
	var memo []memoSel
	if q.scanMemo != nil {
		memo = q.scanMemo[ti]
	}
	rows := float64(inst.Table.RowCount)
	sel, best := z.of(1), z.of(1)
	bestCol := ""
	for fi, f := range filters {
		s := conjSel[T](d, q.Binding, memo, fi, f)
		sel = sel.mul(s)
		switch o, col := sargable[T](d, q.Binding, f); o {
		case yes:
			if s.less(best) == yes {
				bestCol = col
			}
			best = best.min(s)
		case maybe:
			// The filter may or may not be sargable: either best is reachable.
			best = best.hull(best.min(s))
		}
	}
	pages := math.Max(1, float64(inst.Table.SizeBytes)/pageSize)
	seqCost := pages*seqPageCost + rows*cpuTupleCost + rows*cpuOperatorCost*float64(len(filters))
	est := scanEst[T]{rows: z.of(rows).mul(sel).max(z.of(1)), cost: z.of(seqCost)}
	if rows > 64 {
		switch best.less(z.of(0.2)) {
		case yes:
			idx := idxCost(best, rows, pages, len(filters))
			if idx.less(est.cost) == yes {
				est.idxCol = bestCol
			}
			est.cost = est.cost.min(idx)
		case maybe:
			est.cost = est.cost.hull(est.cost.min(idxCost(best, rows, pages, len(filters))))
		}
	}
	return est
}

// idxCost is the index-scan cost at best sargable selectivity s; it is
// nondecreasing in s.
func idxCost[T num[T]](s T, rows, pages float64, filters int) T {
	var z T
	idxRows := s.scale(rows).max(z.of(1))
	return z.of(math.Ceil(math.Log2(rows+1)) * cpuOperatorCost * 4).
		add(idxRows.scale(cpuIndexTupleCost + randomPageCost*pages/rows)).
		add(idxRows.scale(cpuOperatorCost).scale(float64(filters)))
}

// sargable reports whether filter f can drive an index scan — `col op
// const` in either orientation, BETWEEN, or an IN list on an indexed column
// — across the domain's environments, and on which column.
func sargable[T num[T], D domain[T]](d D, b *Binding, f sqlparser.Expr) (outcome, string) {
	switch t := f.(type) {
	case *sqlparser.BinaryExpr:
		lIdx, lCol := indexedOn(b, t.L)
		rIdx, rCol := indexedOn(b, t.R)
		if !t.Op.IsComparison() || lIdx == no && rIdx == no {
			return no, ""
		}
		// The right side is tried as the constant first, then the left;
		// every branch an environment reaches contributes its outcome.
		var out outcome
		col := ""
		r := d.constOf(t.R)
		if r.has() {
			out, col = lIdx, lCol
		}
		if r.missing() {
			l := d.constOf(t.L)
			if l.has() {
				out |= rIdx
				if rCol != "" {
					col = rCol
				}
			}
			if l.missing() {
				out |= no
			}
		}
		return out, col
	case *sqlparser.BetweenExpr:
		return indexedOn(b, t.X)
	case *sqlparser.InExpr:
		if t.Sub == nil {
			return indexedOn(b, t.X)
		}
	}
	return no, ""
}

// indexedOn reports whether e is an indexed column, and its name.
func indexedOn(b *Binding, e sqlparser.Expr) (outcome, string) {
	if col := b.column(e); col != nil && col.Indexed {
		return yes, col.Name
	}
	return no, ""
}

// join estimates join clause ji given the left subtree's rows and cost and
// the right scan's estimate: a hash join on an extracted equi-key, a nested
// loop otherwise.
func join[T num[T], D domain[T]](d D, q *Query, ji int, lRows, lCost T, r scanEst[T]) (rows, cost T) {
	var z T
	var memo []memoSel
	if q.extraMemo != nil {
		memo = q.extraMemo[ji]
	}
	extraSel := z.of(1)
	for ci, c := range q.JoinExtra[ji] {
		extraSel = extraSel.mul(conjSel[T](d, q.Binding, memo, ci, c))
	}
	if q.JoinEqui[ji] != nil {
		rows = lRows.mul(r.rows).div(q.joinND[ji]).mul(extraSel).max(z.of(1))
		cost = lCost.add(r.cost).
			add(lRows.add(r.rows).scale(cpuTupleCost)).  // probe + build tuple handling
			add(r.rows.scale(cpuOperatorCost).scale(2)). // hash build
			add(rows.scale(cpuOperatorCost))
	} else {
		rows = lRows.mul(r.rows).scale(defaultIneqSel).mul(extraSel).max(z.of(1))
		cost = lCost.add(r.cost).add(lRows.mul(r.rows).scale(cpuOperatorCost))
	}
	if q.Stmt.Joins[ji].Type == sqlparser.JoinLeft {
		rows = rows.max(lRows) // a LEFT JOIN keeps every left row
	}
	return rows, cost
}

// groupCount bounds the number of groups by the product of the group keys'
// distinct counts (a tenth of the input for a key without statistics),
// capped at the input rows — PostgreSQL's heuristic. Every factor is at
// least 1, so capping the full product equals capping at the first partial
// product that exceeds the input.
func groupCount[T num[T]](q *Query, inRows T) T {
	var z T
	prod := z.of(1)
	for _, g := range q.Stmt.GroupBy {
		if col := q.Binding.column(g); col != nil && col.Stats.NDistinct > 0 {
			prod = prod.scale(float64(col.Stats.NDistinct))
		} else {
			prod = prod.mul(inRows.div(10).max(z.of(1)))
		}
	}
	return inRows.min(prod).max(z.of(1))
}

// sortCost is an n·log n sort's cost, a constant below two rows.
func sortCost[T num[T]](rows T) T {
	var z T
	small := z.of(cpuOperatorCost)
	below := rows.less(z.of(2))
	if below == yes {
		return small
	}
	r := rows.max(z.of(2)) // the rows the n·log n branch sees
	f := z.of(2).mul(r).mul(r.log2()).scale(cpuOperatorCost)
	if below == maybe {
		f = f.hull(small)
	}
	return f
}
