// Package engine exposes the embedded relational engine behind the same
// narrow surface SQLBarber uses on PostgreSQL: Execute, Explain (estimated
// cardinality and plan cost), and syntax/semantic validation with DBMS-style
// error messages.
package engine

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/datagen"
	"sqlbarber/internal/exec"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/plan"
	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/sqltypes"
	"sqlbarber/internal/storage"
)

// CostKind selects which query cost metric Cost returns (Definition 2.10).
type CostKind uint8

// Supported cost kinds.
const (
	// Cardinality is the optimizer-estimated number of output rows.
	Cardinality CostKind = iota
	// PlanCost is the optimizer-estimated total plan cost.
	PlanCost
	// ExecTimeMS is the measured execution wall time in milliseconds
	// (requires actually running the query).
	ExecTimeMS
	// RowsProcessed is the deterministic execution-effort metric: tuples
	// scanned plus intermediate join tuples while actually running the
	// query. Unlike ExecTimeMS it is reproducible across machines.
	RowsProcessed
)

// Measured reports whether the kind requires actually executing the query
// (as opposed to an optimizer estimate).
func (k CostKind) Measured() bool {
	return k == ExecTimeMS || k == RowsProcessed
}

// Repeatable reports whether the cost is a pure function of the query text
// and the dataset, so probing the same query twice returns the same float.
// Every kind is but ExecTimeMS, whose wall time differs from run to run;
// callers may reuse a repeatable kind's earlier cost instead of probing.
func (k CostKind) Repeatable() bool { return k != ExecTimeMS }

// String names the cost kind.
func (k CostKind) String() string {
	switch k {
	case Cardinality:
		return "cardinality"
	case PlanCost:
		return "plan_cost"
	case ExecTimeMS:
		return "exec_time_ms"
	case RowsProcessed:
		return "rows_processed"
	}
	return fmt.Sprintf("CostKind(%d)", uint8(k))
}

// ParseCostKind maps a command-line or job-request cost name to its kind:
// cardinality, plancost, or rows, case-insensitively. Any other name is an
// error naming the valid ones.
func ParseCostKind(name string) (CostKind, error) {
	switch strings.ToLower(name) {
	case "cardinality":
		return Cardinality, nil
	case "plancost":
		return PlanCost, nil
	case "rows":
		return RowsProcessed, nil
	}
	return 0, fmt.Errorf("engine: unknown cost kind %q (want cardinality, plancost, or rows)", name)
}

// ExplainResult is the engine's answer to an EXPLAIN request.
type ExplainResult struct {
	Cardinality float64
	Cost        float64
	Plan        string
}

// DB is one opened database. All methods are safe for concurrent use; the
// underlying data is immutable after load.
type DB struct {
	store *storage.Database
	plans *planCache
	// sessions is the free list of execution sessions for measured probes,
	// last returned first out: arenas survive across borrowings instead of
	// being rebuilt per probe, and which arena a probe gets depends only on
	// the order of borrowings, not on the goroutine's P, as it would with a
	// sync.Pool.
	sessionsMu sync.Mutex
	sessions   []*session

	// The evaluation counters are obs.Counters so an observability
	// collector can adopt them directly (BindObs): the exported db_*
	// metrics and the DB's own budget accounting are the same memory and
	// can never drift.
	explainCount  obs.Counter
	execCount     obs.Counter
	validateCount obs.Counter
	// preparedProbes counts cost probes served through compiled templates
	// (Prepared.Cost/CostBatch); preparedBatches counts CostBatch calls.
	// Probe schedules are seed-deterministic, so both are stable metrics.
	preparedProbes  obs.Counter
	preparedBatches obs.Counter
	// sessionsOpened counts sessions opened when the free list is empty —
	// scheduling-dependent, exported volatile. sessionProbes counts measured
	// probes served through sessions — schedule-deterministic, stable.
	sessionsOpened obs.Counter
	sessionProbes  obs.Counter
}

// planCacheSize bounds the ad-hoc plan LRU's entry count; templates go
// through Prepare instead, so this only needs to absorb repeated
// validation/re-scoring SQL. planCacheMaxBytes additionally caps the cache's
// approximate memory footprint (see entryBytes).
const (
	planCacheSize     = 256
	planCacheMaxBytes = 4 << 20 // 4 MiB
)

// Open wraps a loaded storage database.
func Open(store *storage.Database) *DB {
	return &DB{store: store, plans: newPlanCache(planCacheSize, planCacheMaxBytes)}
}

// OpenTPCH opens the TPC-H-shaped evaluation database.
func OpenTPCH(seed int64, sf float64) *DB { return Open(datagen.TPCH(seed, sf)) }

// OpenIMDB opens the IMDB-shaped evaluation database.
func OpenIMDB(seed int64, sf float64) *DB { return Open(datagen.IMDB(seed, sf)) }

// OpenSnapshotFile loads a database previously saved with SaveSnapshot.
func OpenSnapshotFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	store, err := storage.Load(f)
	if err != nil {
		return nil, err
	}
	return Open(store), nil
}

// SaveSnapshot persists the database (schema, statistics, rows) to a file.
func (db *DB) SaveSnapshot(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := db.store.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Schema returns the database schema.
func (db *DB) Schema() *catalog.Schema { return db.store.Schema }

// Store exposes the raw storage (used by tests and the SQL shell).
func (db *DB) Store() *storage.Database { return db.store }

// ExplainCalls reports how many Explain/Cost calls were served — the "number
// of DBMS evaluations" the benchmark harness budgets.
func (db *DB) ExplainCalls() int64 { return db.explainCount.Load() }

// ExecCalls reports how many Execute calls were served.
func (db *DB) ExecCalls() int64 { return db.execCount.Load() }

// ValidateCalls reports how many ValidateSyntax round-trips were served —
// the DBMS-check half of the Algorithm 1 budget that the static analyzer
// tries to avoid spending.
func (db *DB) ValidateCalls() int64 { return db.validateCount.Load() }

// PreparedProbes reports how many cost probes were served through compiled
// templates (lock-free on the estimate path). Deterministic for a given
// seed and configuration.
func (db *DB) PreparedProbes() int64 { return db.preparedProbes.Load() }

// PreparedBatches reports how many Prepared.CostBatch sweeps were served.
func (db *DB) PreparedBatches() int64 { return db.preparedBatches.Load() }

// SessionsOpened reports how many execution sessions were opened (session
// pool misses). Scheduling-dependent under parallelism.
func (db *DB) SessionsOpened() int64 { return db.sessionsOpened.Load() }

// SessionProbes reports how many measured-kind probes were served through
// execution sessions. Deterministic for a given seed and configuration.
func (db *DB) SessionProbes() int64 { return db.sessionProbes.Load() }

// ResetCounters zeroes the instrumentation counters.
func (db *DB) ResetCounters() {
	db.explainCount.Store(0)
	db.execCount.Store(0)
	db.validateCount.Store(0)
	db.preparedProbes.Store(0)
	db.preparedBatches.Store(0)
	db.sessionsOpened.Store(0)
	db.sessionProbes.Store(0)
	db.plans.hits.Store(0)
	db.plans.misses.Store(0)
}

// PlanCacheHits reports how many ad-hoc plan lookups were served from the
// LRU. Scheduling-dependent under parallelism (two workers may race on the
// same SQL), so obs binds it as volatile.
func (db *DB) PlanCacheHits() int64 { return db.plans.hits.Load() }

// PlanCacheMisses reports how many ad-hoc plan lookups had to parse+plan.
func (db *DB) PlanCacheMisses() int64 { return db.plans.misses.Load() }

// BindObs adopts the database's live counters into an observability binder
// under the canonical db_* metric names. Snapshots read the counters
// directly, so exported totals always equal ExplainCalls/ExecCalls/
// ValidateCalls exactly — one source, no drift. The plan-cache pair is
// bound volatile: cache hits legitimately depend on goroutine scheduling.
func (db *DB) BindObs(b obs.Binder) {
	b.BindCounter(obs.MDBExplainCalls, &db.explainCount, false)
	b.BindCounter(obs.MDBExecCalls, &db.execCount, false)
	b.BindCounter(obs.MDBValidateCalls, &db.validateCount, false)
	b.BindCounter(obs.MDBPlanCacheHits, &db.plans.hits, true)
	b.BindCounter(obs.MDBPlanCacheMisses, &db.plans.misses, true)
	b.BindCounter(obs.MDBPreparedProbes, &db.preparedProbes, false)
	b.BindCounter(obs.MDBPreparedBatches, &db.preparedBatches, false)
	b.BindCounter(obs.MDBSessionsOpened, &db.sessionsOpened, true)
	b.BindCounter(obs.MDBSessionProbes, &db.sessionProbes, false)
}

// planSQL parses and plans ad-hoc SQL, memoizing successful plans in a
// bounded LRU. Plans are immutable after Build and exec.Run keeps all
// per-run state in the executor, so one cached *plan.Query may serve
// concurrent Explain and Execute calls.
func (db *DB) planSQL(sql string) (*plan.Query, error) {
	if q, ok := db.plans.get(sql); ok {
		return q, nil
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	q, err := plan.Build(db.store.Schema, stmt)
	if err != nil {
		return nil, err
	}
	db.plans.put(sql, q)
	return q, nil
}

// Explain parses and plans the query, returning optimizer estimates without
// executing it — the engine's `EXPLAIN` statement.
func (db *DB) Explain(sql string) (*ExplainResult, error) {
	db.explainCount.Add(1)
	q, err := db.planSQL(sql)
	if err != nil {
		return nil, err
	}
	return &ExplainResult{
		Cardinality: q.EstimatedRows(),
		Cost:        q.TotalCost(),
		Plan:        q.Explain(),
	}, nil
}

// Execute runs the query and returns its result rows.
func (db *DB) Execute(sql string) (*exec.Result, error) {
	db.execCount.Add(1)
	q, err := db.planSQL(sql)
	if err != nil {
		return nil, err
	}
	return exec.Run(db.store, q)
}

// Cost returns the query's cost under the requested metric. Cardinality and
// PlanCost come from the optimizer (EXPLAIN); ExecTimeMS actually executes
// the query. A cancelled context aborts before any evaluation is counted.
func (db *DB) Cost(ctx context.Context, sql string, kind CostKind) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	switch kind {
	case Cardinality, PlanCost:
		res, err := db.Explain(sql)
		if err != nil {
			return 0, err
		}
		if kind == Cardinality {
			return res.Cardinality, nil
		}
		return res.Cost, nil
	case ExecTimeMS:
		start := time.Now()
		if _, err := db.Execute(sql); err != nil {
			return 0, err
		}
		return float64(time.Since(start).Microseconds()) / 1000, nil
	case RowsProcessed:
		res, err := db.Execute(sql)
		if err != nil {
			return 0, err
		}
		return float64(res.RowsTouched), nil
	}
	return 0, fmt.Errorf("engine: unknown cost kind %v", kind)
}

// ValidateSyntax checks that the SQL parses and binds against the schema,
// returning (true, "") on success or (false, message) with a DBMS-style
// error. This is the D.ValidateSyntax of Algorithm 1; template placeholders
// are permitted — they are substituted with neutral probe literals before
// planning.
func (db *DB) ValidateSyntax(sql string) (bool, string) {
	db.validateCount.Add(1)
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return false, err.Error()
	}
	// Substitute placeholders on the AST, never in the SQL text: a textual
	// rewrite cannot tell a placeholder token from a brace that happens to
	// sit inside a string literal, and corrupting such a literal flips the
	// verdict. The statement is freshly parsed and private to this call, so
	// rewriting it in place is safe.
	stmt.RewriteExprs(func(e sqlparser.Expr) sqlparser.Expr {
		if _, ok := e.(*sqlparser.Placeholder); ok {
			return &sqlparser.Literal{Value: sqltypes.NewInt(0)}
		}
		return e
	})
	if _, err := plan.Build(db.store.Schema, stmt); err != nil {
		return false, err.Error()
	}
	return true, ""
}
