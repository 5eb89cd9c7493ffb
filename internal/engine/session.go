package engine

import (
	"context"
	"fmt"
	"time"

	"sqlbarber/internal/exec"
	"sqlbarber/internal/sqltypes"
)

// Session is a per-goroutine execution context for measured-kind probes
// (ExecTimeMS, RowsProcessed). It owns the executor scratch arena — tuple
// lists, join and IN-set hash indexes — that a probe needs, so any number of
// sessions may execute probes against one Prepared concurrently: the probe's
// values travel in an immutable bound view (plan.BindParams), the compiled
// AST is never written, and nothing is locked. A Session is single-goroutine state;
// open one per worker (or let Prepared.Cost borrow one from the DB's pool).
type Session struct {
	db    *DB
	arena exec.Arena
}

// NewSession opens an execution session against the database.
func (db *DB) NewSession() *Session {
	db.sessionsOpened.Add(1)
	return &Session{db: db}
}

// getSession borrows a pooled session for a single probe or sweep range.
func (db *DB) getSession() *Session {
	if s, ok := db.sessions.Get().(*Session); ok {
		return s
	}
	return db.NewSession()
}

// putSession returns a borrowed session to the pool.
func (db *DB) putSession(s *Session) {
	db.sessions.Put(s)
}

// Cost evaluates a prepared template at the given placeholder values in this
// session. Semantics and counter movement are identical to Prepared.Cost —
// estimate kinds never need the session and go straight through the compiled
// evaluator — but measured kinds reuse this session's arena across calls and
// run lock-free.
func (s *Session) Cost(ctx context.Context, p *Prepared, vals map[string]sqltypes.Value, kind CostKind) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if p.db != s.db {
		return 0, fmt.Errorf("engine: session cost: prepared statement belongs to a different database")
	}
	params, err := p.cq.BindVals(vals)
	if err != nil {
		return 0, fmt.Errorf("engine: prepared cost: %w", err)
	}
	return s.costParams(p, params, kind)
}

// costParams serves one validated probe inside the session.
func (s *Session) costParams(p *Prepared, params []sqltypes.Value, kind CostKind) (float64, error) {
	switch kind {
	case Cardinality, PlanCost:
		s.db.explainCount.Add(1)
		s.db.preparedProbes.Add(1)
		est := p.cq.EstimateWith(params)
		if kind == Cardinality {
			return est.Rows, nil
		}
		return est.Cost, nil
	default:
		return s.execParams(p, params, kind)
	}
}

// execParams runs one measured probe: bind the parameter vector as an
// immutable value environment over the compiled skeleton and execute it with
// this session's arena. Counter movement mirrors the re-plan path exactly —
// one execute per attempt, one prepared probe per success — plus the
// session-probe count.
func (s *Session) execParams(p *Prepared, params []sqltypes.Value, kind CostKind) (float64, error) {
	bp := p.cq.BindParams(params)
	s.db.execCount.Add(1)
	var cost float64
	switch kind {
	case ExecTimeMS:
		start := time.Now()
		if _, err := exec.RunBoundArena(s.db.store, bp, &s.arena); err != nil {
			return 0, err
		}
		cost = float64(time.Since(start).Microseconds()) / 1000
	case RowsProcessed:
		res, err := exec.RunBoundArena(s.db.store, bp, &s.arena)
		if err != nil {
			return 0, err
		}
		cost = float64(res.RowsTouched)
	default:
		return 0, fmt.Errorf("engine: unknown cost kind %v", kind)
	}
	s.db.preparedProbes.Add(1)
	s.db.sessionProbes.Add(1)
	return cost, nil
}
