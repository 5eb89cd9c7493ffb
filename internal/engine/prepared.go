package engine

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"time"

	"sqlbarber/internal/exec"
	"sqlbarber/internal/fanout"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/plan"
	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/sqltypes"
)

// Prepared is a template whose SQL has been lexed, parsed, placeholder-
// bound, and plan-compiled exactly once (plan.Compile). Every probe kind runs
// lock-free against the immutable compiled skeleton: optimizer-estimated
// probes (Cardinality, PlanCost) evaluate through the parametric-plan
// estimator, and measured probes (ExecTimeMS, RowsProcessed) run the
// template's executor program (exec.Compile, built once on the first
// measured probe) at the probe's bound parameter vector with an execution
// session's scratch arena. Nothing is written into the AST after Compile, so
// any number of goroutines may mix probe kinds on one Prepared concurrently —
// this is the hot path of §5.1 profiling sweeps and §5.3 BO search.
type Prepared struct {
	db   *DB
	text string
	cq   *plan.CompiledQuery

	// prog is the executor program, built by progOnce on the first measured
	// probe: a template probed only by estimate kinds never builds one.
	progOnce sync.Once
	prog     *exec.Program
}

// Prepare parses and plan-compiles the template SQL once. The compiled
// statement is validated by planning it with neutral zero values, so defects
// surface at prepare time rather than on the first probe. Prepare itself
// performs no DBMS evaluation — the explain/execute counters are untouched,
// preserving call parity with the re-parse path.
func (db *DB) Prepare(templateSQL string) (*Prepared, error) {
	stmt, err := sqlparser.Parse(templateSQL)
	if err != nil {
		return nil, fmt.Errorf("engine: prepare: %w", err)
	}
	cq, err := plan.Compile(db.store.Schema, stmt)
	if err != nil {
		return nil, fmt.Errorf("engine: prepare: %w", err)
	}
	return &Prepared{db: db, text: templateSQL, cq: cq}, nil
}

// SQL returns the original template text.
func (p *Prepared) SQL() string { return p.text }

// Placeholders returns the sorted placeholder names the template declares.
func (p *Prepared) Placeholders() []string { return p.cq.Placeholders() }

// Cost evaluates the template at the given placeholder values under the
// requested metric. Values are validated and normalized before anything
// else — a probe with missing placeholders has no effect. No kind locks or
// touches the AST: estimate kinds go through the compiled evaluator, measured
// kinds borrow a free session and run the executor program. Cost
// increments the same DBMS-evaluation counters as DB.Cost, so a prepared run
// reports identical evaluation counts to a re-parse run.
func (p *Prepared) Cost(ctx context.Context, vals map[string]sqltypes.Value, kind CostKind) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	params, err := p.cq.BindVals(vals)
	if err != nil {
		return 0, fmt.Errorf("engine: prepared cost: %w", err)
	}
	return p.probe(nil, params, kind)
}

// CostBatch evaluates the template at a sweep of placeholder bindings,
// reusing one parameter buffer across probes. It returns the costs computed
// so far plus the first error encountered (probes after the failure are not
// attempted); cancellation is checked between probes. The db_prepared_batches
// counter increments once per sweep, db_prepared_probes once per probe —
// profiler LHS sweeps and BO waves go through here.
func (p *Prepared) CostBatch(ctx context.Context, vals []map[string]sqltypes.Value, kind CostKind) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.db.preparedBatches.Add(1)
	out := make([]float64, 0, len(vals))
	var params []sqltypes.Value
	for _, m := range vals {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		var err error
		params, err = p.cq.BindValsInto(params, m)
		if err != nil {
			return out, fmt.Errorf("engine: prepared cost: %w", err)
		}
		c, err := p.probe(nil, params, kind)
		if err != nil {
			return out, err
		}
		out = append(out, c)
	}
	return out, nil
}

// CostBatchParallel evaluates a sweep of placeholder bindings on parallel
// goroutines, one session per fan-out slot. Unlike CostBatch it has
// attempt-all semantics: every binding is validated up front (any invalid
// probe fails the whole sweep before anything is evaluated), then every
// probe is attempted regardless of other probes' failures, and the first
// error in probe order is returned with the full cost vector. Counter movement is therefore a function of the probe
// schedule alone — identical at every parallel level — which is what lets the
// profiler fan measured sweeps out without perturbing the deterministic
// snapshot. The db_prepared_batches counter increments once per sweep, like
// CostBatch.
func (p *Prepared) CostBatchParallel(ctx context.Context, vals []map[string]sqltypes.Value, kind CostKind, parallel int) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	paramsList := make([][]sqltypes.Value, len(vals))
	for i, m := range vals {
		ps, err := p.cq.BindVals(m)
		if err != nil {
			return nil, fmt.Errorf("engine: prepared cost: %w", err)
		}
		paramsList[i] = ps
	}
	p.db.preparedBatches.Add(1)
	out := make([]float64, len(vals))
	errs := make([]error, len(vals))
	// One session per fan-out slot: a slot runs one probe at a time, so its
	// session is never shared by two running probes.
	sessions := make([]*session, max(1, min(parallel, len(vals))))
	for k := range sessions {
		sessions[k] = p.db.getSession()
	}
	_ = fanout.Run(parallel, len(paramsList), func(slot, i int) error {
		if errs[i] = ctx.Err(); errs[i] == nil {
			out[i], errs[i] = p.probe(sessions[slot], paramsList[i], kind)
		}
		return nil // attempt-all: a failed probe does not stop the sweep
	})
	for _, s := range sessions {
		p.db.putSession(s)
	}
	for i, err := range errs {
		if err != nil {
			return out, fmt.Errorf("engine: prepared cost: probe %d: %w", i, err)
		}
	}
	return out, nil
}

// probe serves one validated probe. Estimate kinds go through the compiled
// evaluator and never touch a session. Measured kinds run the executor
// program (built on the first measured probe) as a count-only probe
// (exec.Program.Probe) at the parameter vector with s's arena, borrowing a
// free session when s is nil.
// Counter movement mirrors DB.Cost exactly — one explain per estimate, one
// execute per measured attempt — plus one prepared probe per success and one
// session probe per measured success.
func (p *Prepared) probe(s *session, params []sqltypes.Value, kind CostKind) (float64, error) {
	db := p.db
	if kind == Cardinality || kind == PlanCost {
		db.explainCount.Add(1)
		db.preparedProbes.Add(1)
		est := p.cq.EstimateWith(params)
		if kind == Cardinality {
			return est.Rows, nil
		}
		return est.Cost, nil
	}
	if !kind.Measured() {
		return 0, fmt.Errorf("engine: unknown cost kind %v", kind)
	}
	if s == nil {
		s = db.getSession()
		defer db.putSession(s)
	}
	p.progOnce.Do(func() { p.prog = exec.Compile(p.cq.Query(), p.cq.Slot) })
	db.execCount.Add(1)
	start := time.Now()
	touched, err := p.prog.Probe(db.store, params, &s.arena)
	if err != nil {
		return 0, err
	}
	cost := float64(touched)
	if kind == ExecTimeMS {
		cost = float64(time.Since(start).Microseconds()) / 1000
	}
	db.preparedProbes.Add(1)
	db.sessionProbes.Add(1)
	return cost, nil
}

// session is a per-goroutine execution context for measured-kind probes. It
// owns the executor scratch arena — tuple lists, join and IN-set hash
// indexes — that a probe needs, so any number of sessions may execute probes
// against one Prepared concurrently: the probe's values travel in its own
// parameter vector, the program and the compiled AST are never written, and
// nothing is locked. A session is single-goroutine state.
type session struct {
	arena exec.Arena
}

// newSession opens an execution session against the database.
func (db *DB) newSession() *session {
	db.sessionsOpened.Add(1)
	return &session{}
}

// getSession borrows the most recently returned session for a single probe
// or sweep range, opening one when none is free.
func (db *DB) getSession() *session {
	db.sessionsMu.Lock()
	defer db.sessionsMu.Unlock()
	if k := len(db.sessions); k > 0 {
		s := db.sessions[k-1]
		db.sessions[k-1] = nil
		db.sessions = db.sessions[:k-1]
		return s
	}
	return db.newSession()
}

// putSession returns a borrowed session to the free list.
func (db *DB) putSession(s *session) {
	db.sessionsMu.Lock()
	db.sessions = append(db.sessions, s)
	db.sessionsMu.Unlock()
}

// planCache is a sharded, bounded LRU of parsed-and-planned ad-hoc SQL. It
// caps both entry count and approximate memory (entryBytes), enforced per
// shard; sharding by SQL hash keeps concurrent goroutines off one mutex.
// Templates dominate probe traffic through Prepared, while repeated ad-hoc
// statements (validation probes, workload re-scoring) hit the cache instead
// of re-lexing. The hit/miss counters are exported as volatile obs metrics:
// under parallel runs the LRU's contents depend on goroutine interleaving,
// so these two counts are legitimately scheduling-dependent and excluded
// from the deterministic snapshot.
type planCache struct {
	shards []*planShard

	hits   obs.Counter
	misses obs.Counter
}

// planCacheShardCount is the shard fan-out for full-size caches. Tiny caches
// (tests) collapse to one shard so the entry bound stays exact.
const planCacheShardCount = 8

type planShard struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	ll         *list.List
	m          map[string]*list.Element
	bytes      int64
}

type planEntry struct {
	sql   string
	q     *plan.Query
	bytes int64
}

// entryBytes approximates one cached plan's memory footprint: a fixed
// overhead for the entry, list element, and plan skeleton, plus terms
// proportional to the SQL text (the key copy and the roughly text-sized
// AST/plan structures).
func entryBytes(sql string) int64 {
	return 512 + 2*int64(len(sql))
}

func newPlanCache(maxEntries int, maxBytes int64) *planCache {
	n := planCacheShardCount
	if maxEntries < n {
		n = 1
	}
	c := &planCache{shards: make([]*planShard, n)}
	for i := range c.shards {
		c.shards[i] = &planShard{
			maxEntries: maxEntries / n,
			maxBytes:   maxBytes / int64(n),
			ll:         list.New(),
			m:          map[string]*list.Element{},
		}
	}
	return c
}

// shard picks the shard for a SQL string via FNV-1a (allocation-free).
func (c *planCache) shard(sql string) *planShard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(sql); i++ {
		h ^= uint32(sql[i])
		h *= prime32
	}
	return c.shards[h%uint32(len(c.shards))]
}

func (c *planCache) get(sql string) (*plan.Query, bool) {
	s := c.shard(sql)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[sql]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	s.ll.MoveToFront(el)
	return el.Value.(*planEntry).q, true
}

func (c *planCache) put(sql string, q *plan.Query) {
	s := c.shard(sql)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[sql]; ok {
		s.ll.MoveToFront(el)
		el.Value.(*planEntry).q = q
		return
	}
	e := &planEntry{sql: sql, q: q, bytes: entryBytes(sql)}
	s.m[sql] = s.ll.PushFront(e)
	s.bytes += e.bytes
	for s.ll.Len() > s.maxEntries || (s.bytes > s.maxBytes && s.ll.Len() > 1) {
		last := s.ll.Back()
		le := last.Value.(*planEntry)
		s.ll.Remove(last)
		delete(s.m, le.sql)
		s.bytes -= le.bytes
	}
}

// len reports the number of cached plans across shards (used by tests).
func (c *planCache) len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// approxBytes reports the cache's approximate memory footprint (tests).
func (c *planCache) approxBytes() int64 {
	var n int64
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.bytes
		s.mu.Unlock()
	}
	return n
}
