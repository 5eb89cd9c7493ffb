package plan

import (
	"fmt"
	"sort"
	"strconv"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/sqltypes"
)

// CompiledQuery is a parametric plan: the value-independent skeleton of a
// templated statement — binding and scope resolution, conjunct placement,
// equi-join keys, operator sequence, per-table base statistics, and
// memoized static selectivities — compiled once, plus a per-probe evaluator
// (EstimateWith) that recomputes only the selectivity-dependent estimates
// and the cost roll-up. The compiled state is immutable after Compile;
// probes pass their values in and mutate nothing, so any number of
// goroutines may estimate through one CompiledQuery concurrently. This is
// the generic-plan trick of PostgreSQL's plan cache applied to SQLBarber's
// probe loop: the skeleton survives across probes, only numbers move.
//
// Value-dependent *structure* decisions (the sargable index-scan flip) are
// not frozen into the skeleton — they are re-evaluated at their decision
// points inside the one roll-up Build also runs, which is what makes
// EstimateWith bit-identical to a fresh Build of the value-substituted
// statement.
type CompiledQuery struct {
	schema *catalog.Schema
	stmt   *sqlparser.SelectStmt
	root   *Query

	names   []string                        // sorted placeholder names
	slots   map[string][]*sqlparser.Literal // placeholder name -> its literal slots
	slotIdx map[*sqlparser.Literal]int      // literal slot -> parameter index
	post    []*Query                        // all plans, subplans before parents, root last
}

// Estimate is one probe's optimizer outcome: the root cardinality and the
// total plan cost (including subquery plans), matching Query.EstimatedRows
// and Query.TotalCost exactly.
type Estimate struct {
	Rows float64
	Cost float64
}

// MissingParamsError reports placeholders a probe failed to supply values
// for. Names are sorted, so the message is deterministic.
type MissingParamsError struct {
	Names []string
}

// Error implements the error interface.
func (e *MissingParamsError) Error() string {
	return fmt.Sprintf("missing values for placeholders %v", e.Names)
}

// NormalizeValue mirrors the SQL lexer's numeric tokenization so a bound
// probe value compares bit-identically with what re-parsing the rendered SQL
// would produce: a float whose shortest decimal rendering has no '.' or
// exponent lexes back as an integer literal, so it is normalized to one here
// too. Non-float values pass through unchanged.
func NormalizeValue(v sqltypes.Value) sqltypes.Value {
	if v.Kind() != sqltypes.KindFloat {
		return v
	}
	s := strconv.FormatFloat(v.Float(), 'g', -1, 64)
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return sqltypes.NewInt(n)
	}
	return v
}

// Compile takes ownership of stmt, rewrites each {name} placeholder into a
// parameter-backed literal slot, builds the full plan skeleton once (the
// statement is validated by planning it at neutral zero values), and
// memoizes every conjunct selectivity that no parameter can influence.
func Compile(schema *catalog.Schema, stmt *sqlparser.SelectStmt) (*CompiledQuery, error) {
	c := &CompiledQuery{
		schema:  schema,
		stmt:    stmt,
		slots:   map[string][]*sqlparser.Literal{},
		slotIdx: map[*sqlparser.Literal]int{},
	}
	stmt.RewriteExprs(func(e sqlparser.Expr) sqlparser.Expr {
		ph, ok := e.(*sqlparser.Placeholder)
		if !ok {
			return e
		}
		lit := &sqlparser.Literal{Value: sqltypes.NewInt(0)}
		c.slots[ph.Name] = append(c.slots[ph.Name], lit)
		return lit
	})
	for name := range c.slots {
		c.names = append(c.names, name)
	}
	sort.Strings(c.names)
	for i, name := range c.names {
		for _, lit := range c.slots[name] {
			c.slotIdx[lit] = i
		}
	}
	q, post, err := build(schema, stmt)
	if err != nil {
		return nil, err
	}
	c.root, c.post = q, post
	for _, sub := range c.post {
		c.memoize(sub)
	}
	return c, nil
}

// memoize fills one plan's selectivity memos: conjuncts free of parameter
// slots get their selectivity computed once, parameter-bearing conjuncts are
// flagged dynamic and recomputed per probe. The dynamic test is conservative
// (any slot anywhere in the conjunct, including inside nested subqueries),
// so a memo hit can never change a probe's result.
func (c *CompiledQuery) memoize(q *Query) {
	memoConjs := func(cs []sqlparser.Expr) []memoSel {
		if cs == nil {
			return nil
		}
		out := make([]memoSel, len(cs))
		for i, e := range cs {
			if c.exprHasSlot(e) {
				out[i].dynamic = true
			} else {
				out[i].sel = q.Binding.Selectivity(e)
			}
		}
		return out
	}
	q.scanMemo = make([][]memoSel, len(q.ScanFilters))
	for ti, fs := range q.ScanFilters {
		q.scanMemo[ti] = memoConjs(fs)
	}
	q.extraMemo = make([][]memoSel, len(q.JoinExtra))
	for ji, cs := range q.JoinExtra {
		q.extraMemo[ji] = memoConjs(cs)
	}
	q.residMemo = memoConjs(q.Residual)
}

// exprHasSlot reports whether any parameter slot occurs in the expression,
// descending into nested subqueries.
func (c *CompiledQuery) exprHasSlot(e sqlparser.Expr) bool {
	switch t := e.(type) {
	case nil:
		return false
	case *sqlparser.Literal:
		_, ok := c.slotIdx[t]
		return ok
	case *sqlparser.BinaryExpr:
		return c.exprHasSlot(t.L) || c.exprHasSlot(t.R)
	case *sqlparser.UnaryExpr:
		return c.exprHasSlot(t.X)
	case *sqlparser.FuncCall:
		for _, a := range t.Args {
			if c.exprHasSlot(a) {
				return true
			}
		}
	case *sqlparser.CaseExpr:
		for _, w := range t.Whens {
			if c.exprHasSlot(w.Cond) || c.exprHasSlot(w.Result) {
				return true
			}
		}
		return c.exprHasSlot(t.Else)
	case *sqlparser.InExpr:
		if c.exprHasSlot(t.X) {
			return true
		}
		for _, it := range t.List {
			if c.exprHasSlot(it) {
				return true
			}
		}
		return c.stmtHasSlot(t.Sub)
	case *sqlparser.ExistsExpr:
		return c.stmtHasSlot(t.Sub)
	case *sqlparser.BetweenExpr:
		return c.exprHasSlot(t.X) || c.exprHasSlot(t.Lo) || c.exprHasSlot(t.Hi)
	case *sqlparser.LikeExpr:
		return c.exprHasSlot(t.X) || c.exprHasSlot(t.Pattern)
	case *sqlparser.IsNullExpr:
		return c.exprHasSlot(t.X)
	case *sqlparser.SubqueryExpr:
		return c.stmtHasSlot(t.Sub)
	}
	return false
}

// stmtHasSlot reports whether any parameter slot occurs anywhere in a nested
// statement.
func (c *CompiledQuery) stmtHasSlot(s *sqlparser.SelectStmt) bool {
	if s == nil {
		return false
	}
	for _, it := range s.Items {
		if c.exprHasSlot(it.Expr) {
			return true
		}
	}
	for _, j := range s.Joins {
		if c.exprHasSlot(j.On) {
			return true
		}
	}
	if c.exprHasSlot(s.Where) || c.exprHasSlot(s.Having) {
		return true
	}
	for _, g := range s.GroupBy {
		if c.exprHasSlot(g) {
			return true
		}
	}
	for _, o := range s.OrderBy {
		if c.exprHasSlot(o.Expr) {
			return true
		}
	}
	return false
}

// Stmt returns the compiled (slot-rewritten) statement. Callers must treat
// it as read-only unless they own the compiled query and hold whatever lock
// serializes AssignSlots.
func (c *CompiledQuery) Stmt() *sqlparser.SelectStmt { return c.stmt }

// Query returns the skeleton plan built at neutral zero values.
func (c *CompiledQuery) Query() *Query { return c.root }

// Placeholders returns the sorted placeholder names the statement declares.
func (c *CompiledQuery) Placeholders() []string {
	out := make([]string, len(c.names))
	copy(out, c.names)
	return out
}

// BindVals validates and normalizes a probe's values into a fresh parameter
// vector ordered like Placeholders(). Validation happens before anything
// else — a probe that is missing values has no effect whatsoever.
func (c *CompiledQuery) BindVals(vals map[string]sqltypes.Value) ([]sqltypes.Value, error) {
	return c.BindValsInto(nil, vals)
}

// BindValsInto is BindVals reusing the caller's buffer, for allocation-free
// batched probing. The returned slice aliases dst when it has capacity.
func (c *CompiledQuery) BindValsInto(dst []sqltypes.Value, vals map[string]sqltypes.Value) ([]sqltypes.Value, error) {
	var missing []string
	for _, name := range c.names {
		if _, ok := vals[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return nil, &MissingParamsError{Names: missing}
	}
	dst = dst[:0]
	for _, name := range c.names {
		dst = append(dst, NormalizeValue(vals[name]))
	}
	return dst, nil
}

// EstimateWith evaluates the compiled plan at the given parameter vector
// (as produced by BindVals) and returns estimates bit-identical to parsing
// and Building the value-substituted SQL: it runs the same point roll-up
// Build runs, reading slot values from the vector. It allocates nothing
// beyond the subplan totals of a statement with subqueries, mutates
// nothing, and is safe for unlimited concurrency.
func (c *CompiledQuery) EstimateWith(params []sqltypes.Value) Estimate {
	rows, cost := estimate[point](valueEnv{slots: c.slotIdx, vals: params}, c.post)
	return Estimate{Rows: float64(rows), Cost: float64(cost)}
}

// CostWith validates, normalizes, and estimates in one call — the
// convenience form of BindVals + EstimateWith.
func (c *CompiledQuery) CostWith(vals map[string]sqltypes.Value) (Estimate, error) {
	params, err := c.BindVals(vals)
	if err != nil {
		return Estimate{}, err
	}
	return c.EstimateWith(params), nil
}

// AssignSlots writes a validated parameter vector into the statement's
// literal slots, for callers that need the bound AST itself (the engine's
// measured-cost path executes the statement and so must materialize the
// values). Callers are responsible for serializing AssignSlots with any use
// of Stmt(); the estimate path never reads the slots and is unaffected.
func (c *CompiledQuery) AssignSlots(params []sqltypes.Value) {
	for i, name := range c.names {
		for _, lit := range c.slots[name] {
			lit.Value = params[i]
		}
	}
}
