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
	root   *Query

	names   []string                   // sorted placeholder names
	slotIdx map[*sqlparser.Literal]int // literal slot -> parameter index
	post    []*Query                   // all plans, subplans before parents, root last
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
	var buf [32]byte
	s := strconv.AppendFloat(buf[:0], v.Float(), 'g', -1, 64)
	// Only a sign and digits can parse as an integer; a fractional value
	// returns here without allocating the rendering or a parse error.
	for _, c := range s {
		if (c < '0' || c > '9') && c != '-' {
			return v
		}
	}
	if n, err := strconv.ParseInt(string(s), 10, 64); err == nil {
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
		slotIdx: map[*sqlparser.Literal]int{},
	}
	slots := map[string][]*sqlparser.Literal{} // placeholder name -> its literal slots
	stmt.RewriteExprs(func(e sqlparser.Expr) sqlparser.Expr {
		ph, ok := e.(*sqlparser.Placeholder)
		if !ok {
			return e
		}
		lit := &sqlparser.Literal{Value: sqltypes.NewInt(0)}
		slots[ph.Name] = append(slots[ph.Name], lit)
		return lit
	})
	for name := range slots {
		c.names = append(c.names, name)
	}
	sort.Strings(c.names)
	for i, name := range c.names {
		for _, lit := range slots[name] {
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
	found := false
	isSlot := func(x sqlparser.Expr) {
		if lit, ok := x.(*sqlparser.Literal); ok {
			_, slot := c.slotIdx[lit]
			found = found || slot
		}
	}
	sqlparser.Walk(e, func(x sqlparser.Expr) bool { isSlot(x); return !found },
		func(s *sqlparser.SelectStmt) { s.WalkExprs(isSlot) })
	return found
}

// Query returns the skeleton plan built at neutral zero values. Its literal
// slots carry neutral compile-time values in the AST itself: an executor
// resolves each slot to its index in the bound parameter vector (Slot) once,
// when it compiles the plan, and reads the probe value from the vector.
func (c *CompiledQuery) Query() *Query { return c.root }

// Slot reports the index in the bound parameter vector (BindVals order) of a
// literal that is a parameter slot; plain literals report ok=false and keep
// their parsed value.
func (c *CompiledQuery) Slot(lit *sqlparser.Literal) (int, bool) {
	i, ok := c.slotIdx[lit]
	return i, ok
}

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
