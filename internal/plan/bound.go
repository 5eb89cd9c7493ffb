package plan

import (
	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/sqltypes"
)

// BoundPlan is a read-only view of a CompiledQuery at one probe's parameter
// vector: the immutable skeleton plus a value environment that resolves each
// literal slot to its probe value — the executor-facing twin of the valueEnv
// overlay EstimateWith/CostWith use. Nothing is written into the AST, so any
// number of goroutines may hold bound views of one CompiledQuery and execute
// them concurrently.
type BoundPlan struct {
	cq     *CompiledQuery
	params []sqltypes.Value
}

// BindParams wraps an already-validated parameter vector (as produced by
// BindVals/BindValsInto) as an executable bound view, without copying. The caller must keep the vector
// unchanged while the bound view is in use.
func (c *CompiledQuery) BindParams(params []sqltypes.Value) *BoundPlan {
	return &BoundPlan{cq: c, params: params}
}

// Query returns the immutable skeleton plan to execute. Every literal the
// executor encounters in it must be resolved through LiteralValue first —
// slot literals carry neutral compile-time values in the AST itself.
func (bp *BoundPlan) Query() *Query { return bp.cq.root }

// LiteralValue resolves a literal through the value environment: parameter
// slots report their bound probe value, plain literals report ok=false and
// keep their parsed value.
func (bp *BoundPlan) LiteralValue(lit *sqlparser.Literal) (sqltypes.Value, bool) {
	i, ok := bp.cq.slotIdx[lit]
	if !ok {
		return sqltypes.Null, false
	}
	return bp.params[i], true
}
