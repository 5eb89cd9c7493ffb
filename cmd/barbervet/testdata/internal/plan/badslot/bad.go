// Package badslot is a barbervet fixture for R008 inside internal/plan:
// planner code writing probe values back into a compiled statement's literal
// slots, as the old slot-assignment re-plan path did. Nothing may write a
// compiled statement after Compile, so the planner gets no exemption. It
// lives under testdata so the go tool never builds it; the linter's tests
// point at this directory and expect exactly one R008 finding.
package badslot

import "sqlbarber/internal/sqlparser"

// assignSlots materializes a parameter vector into the shared AST: R008.
func assignSlots(slots [][]*sqlparser.Literal, params []sqlparser.Expr) {
	for i, lits := range slots {
		for _, lit := range lits {
			lit.Value = params[i]
		}
	}
}

// fresh builds a new literal with a composite literal, which is not a write
// to an existing slot and must stay silent.
func fresh() *sqlparser.Literal {
	return &sqlparser.Literal{}
}
