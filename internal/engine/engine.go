// Package engine exposes the embedded relational engine behind the same
// narrow surface SQLBarber uses on PostgreSQL: Execute, Explain (estimated
// cardinality and plan cost), and syntax/semantic validation with DBMS-style
// error messages. Its one measured cost kind, RowsProcessed, stands in for
// execution time and is deterministic, so every cost kind is a pure function
// of the query and the dataset. Templates are probed through Prepare;
// ad-hoc SQL is parsed and planned afresh on every call.
package engine

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/datagen"
	"sqlbarber/internal/exec"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/plan"
	"sqlbarber/internal/sqlparser"
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
	// RowsProcessed is the measured execution-effort metric: tuples
	// scanned plus intermediate join tuples while actually running the
	// query. It stands in for execution time and, unlike a wall clock, is
	// reproducible across runs and machines.
	RowsProcessed
)

// Measured reports whether the kind requires actually executing the query
// (as opposed to an optimizer estimate).
func (k CostKind) Measured() bool { return k == RowsProcessed }

// String names the cost kind.
func (k CostKind) String() string {
	switch k {
	case Cardinality:
		return "cardinality"
	case PlanCost:
		return "plan_cost"
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

// Open wraps a loaded storage database.
func Open(store *storage.Database) *DB { return &DB{store: store} }

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
}

// PlanCacheHits is always 0: the engine keeps no ad-hoc plan cache. It stays
// only because the bench/ harness still reads it.
func (db *DB) PlanCacheHits() int64 { return 0 }

// PlanCacheMisses is always 0, for the same reason as PlanCacheHits.
func (db *DB) PlanCacheMisses() int64 { return 0 }

// BindObs adopts the database's live counters into an observability binder
// under the canonical db_* metric names. Snapshots read the counters
// directly, so exported totals always equal ExplainCalls/ExecCalls/
// ValidateCalls exactly — one source, no drift. Sessions opened is bound
// volatile: it depends on goroutine scheduling.
func (db *DB) BindObs(b obs.Binder) {
	b.BindCounter(obs.MDBExplainCalls, &db.explainCount, false)
	b.BindCounter(obs.MDBExecCalls, &db.execCount, false)
	b.BindCounter(obs.MDBValidateCalls, &db.validateCount, false)
	b.BindCounter(obs.MDBPreparedProbes, &db.preparedProbes, false)
	b.BindCounter(obs.MDBPreparedBatches, &db.preparedBatches, false)
	b.BindCounter(obs.MDBSessionsOpened, &db.sessionsOpened, true)
	b.BindCounter(obs.MDBSessionProbes, &db.sessionProbes, false)
}

// planSQL parses and plans ad-hoc SQL.
func (db *DB) planSQL(sql string) (*plan.Query, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return plan.Build(db.store.Schema, stmt)
}

// compile parses and plan-compiles template SQL, placeholders included. It is
// the one check behind both Prepare and ValidateSyntax, so a template is
// valid exactly when it is preparable.
func (db *DB) compile(templateSQL string) (*plan.CompiledQuery, error) {
	stmt, err := sqlparser.Parse(templateSQL)
	if err != nil {
		return nil, err
	}
	return plan.Compile(db.store.Schema, stmt)
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
// PlanCost come from the optimizer (EXPLAIN); RowsProcessed actually
// executes the query. A cancelled context aborts before any evaluation is
// counted.
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
// are permitted. It runs Prepare's compile, so a template validates exactly
// when Prepare accepts it, with the same message.
func (db *DB) ValidateSyntax(sql string) (bool, string) {
	db.validateCount.Add(1)
	if _, err := db.compile(sql); err != nil {
		return false, err.Error()
	}
	return true, ""
}
