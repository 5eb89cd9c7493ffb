package sqlparser

// The child structure of every expression node is written once, in slots,
// and the clause structure of a SELECT once, in clauses. Every traversal —
// Walk, EachClause, DirectSubqueries, WalkExprs, RewriteExprs — is built on
// those two, so each pass over a statement sees the same children in the
// same order: the order SQL renders them.

// slots calls fn with the address of each child expression slot of e, in
// rendering order, and returns the SELECT nested directly in e (nil if
// none). A slot may hold nil: an absent CASE ELSE.
func slots(e Expr, fn func(*Expr)) *SelectStmt {
	switch t := e.(type) {
	case *BinaryExpr:
		fn(&t.L)
		fn(&t.R)
	case *UnaryExpr:
		fn(&t.X)
	case *FuncCall:
		for i := range t.Args {
			fn(&t.Args[i])
		}
	case *CaseExpr:
		for i := range t.Whens {
			fn(&t.Whens[i].Cond)
			fn(&t.Whens[i].Result)
		}
		fn(&t.Else)
	case *InExpr:
		fn(&t.X)
		for i := range t.List {
			fn(&t.List[i])
		}
		return t.Sub
	case *ExistsExpr:
		return t.Sub
	case *BetweenExpr:
		fn(&t.X)
		fn(&t.Lo)
		fn(&t.Hi)
	case *LikeExpr:
		fn(&t.X)
		fn(&t.Pattern)
	case *IsNullExpr:
		fn(&t.X)
	case *SubqueryExpr:
		return t.Sub
	}
	return nil
}

// clauses calls fn with the address of each top-level expression slot of s
// and the clause that holds it, in rendering order: SELECT items, ON
// conditions, WHERE, GROUP BY, HAVING, ORDER BY. Star items and absent
// clauses pass a slot holding nil.
func (s *SelectStmt) clauses(fn func(clause string, e *Expr)) {
	for i := range s.Items {
		fn("SELECT", &s.Items[i].Expr)
	}
	for i := range s.Joins {
		fn("ON", &s.Joins[i].On)
	}
	fn("WHERE", &s.Where)
	for i := range s.GroupBy {
		fn("GROUP BY", &s.GroupBy[i])
	}
	fn("HAVING", &s.Having)
	for i := range s.OrderBy {
		fn("ORDER BY", &s.OrderBy[i].Expr)
	}
}

// Walk visits e and its descendants at e's own query level in pre-order,
// calling fn on each node; when fn returns false the node's children are
// skipped. Nested SELECTs are not entered: each is passed to sub (when
// non-nil) after the children of the node that holds it. A nil fn visits
// every node, which lists only the subqueries.
func Walk(e Expr, fn func(Expr) bool, sub func(*SelectStmt)) {
	if e == nil || fn != nil && !fn(e) {
		return
	}
	if s := slots(e, func(c *Expr) { Walk(*c, fn, sub) }); s != nil && sub != nil {
		sub(s)
	}
}

// EachClause calls fn with each top-level expression of s and the clause
// that holds it — "SELECT", "ON", "WHERE", "GROUP BY", "HAVING" or
// "ORDER BY" — in rendering order, skipping star items and absent clauses.
func (s *SelectStmt) EachClause(fn func(clause string, e Expr)) {
	s.clauses(func(clause string, e *Expr) {
		if *e != nil {
			fn(clause, *e)
		}
	})
}

// DirectSubqueries returns the SELECTs nested in s but not inside another
// subquery, in the order Walk passes them on, clause by clause.
func (s *SelectStmt) DirectSubqueries() []*SelectStmt {
	var out []*SelectStmt
	add := func(sub *SelectStmt) { out = append(out, sub) }
	s.EachClause(func(_ string, e Expr) { Walk(e, nil, add) })
	return out
}

// WalkExprs calls fn for every expression in the statement in pre-order,
// clause by clause, entering each subquery after the children of the node
// that holds it. It is the traversal primitive behind feature analysis and
// placeholder extraction.
func (s *SelectStmt) WalkExprs(fn func(Expr)) {
	visit := func(e Expr) bool { fn(e); return true }
	enter := func(sub *SelectStmt) { sub.WalkExprs(fn) }
	s.EachClause(func(_ string, e Expr) { Walk(e, visit, enter) })
}

// RewriteExprs rewrites every expression in the statement bottom-up: fn is
// called with each node after its children have been rewritten, and its
// return value replaces the node (return the argument unchanged to keep it).
// Subqueries are rewritten recursively. It is the mutation primitive behind
// the engine's prepared-template layer, which swaps {p_i} placeholders for
// mutable literal slots exactly once instead of re-parsing per probe.
func (s *SelectStmt) RewriteExprs(fn func(Expr) Expr) {
	var rw func(slot *Expr)
	rw = func(slot *Expr) {
		if *slot == nil {
			return
		}
		if sub := slots(*slot, rw); sub != nil {
			sub.RewriteExprs(fn)
		}
		*slot = fn(*slot)
	}
	s.clauses(func(_ string, e *Expr) { rw(e) })
}

// ContainsAggregate reports whether e calls an aggregate function at its own
// query level; aggregates inside a subquery belong to that subquery.
func ContainsAggregate(e Expr) bool {
	found := false
	Walk(e, func(x Expr) bool {
		if f, ok := x.(*FuncCall); ok && f.IsAggregate() {
			found = true
		}
		return !found
	}, nil)
	return found
}
