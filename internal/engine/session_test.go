package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"sqlbarber/internal/sqltemplate"
	"sqlbarber/internal/sqltypes"
)

// sessionTemplates are measured-probe shapes spanning the executor surface:
// plain scan+aggregate, hash join, and a correlated-subquery residual.
var sessionTemplates = []string{
	"SELECT COUNT(*) FROM lineitem WHERE l_quantity >= {p_1} AND l_extendedprice < {p_2}",
	"SELECT o.o_orderkey, COUNT(*) FROM orders AS o JOIN lineitem AS l ON o.o_orderkey = l.l_orderkey WHERE o.o_totalprice > {p_1} AND l.l_quantity <= {p_2} GROUP BY o.o_orderkey",
	"SELECT o_orderkey FROM orders WHERE o_totalprice > {p_1} AND EXISTS (SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey AND l_quantity > {p_2})",
}

func sessionVals(i int) map[string]sqltypes.Value {
	return map[string]sqltypes.Value{
		"p_1": sqltypes.NewInt(int64(1 + i*7%40)),
		"p_2": sqltypes.NewFloat(float64(10 + i*13%45)),
	}
}

// sessionCost is one probe through a dedicated session: bind the values,
// then serve the probe with s's arena.
func sessionCost(s *session, p *Prepared, vals map[string]sqltypes.Value, kind CostKind) (float64, error) {
	params, err := p.cq.BindVals(vals)
	if err != nil {
		return 0, err
	}
	return p.probe(s, params, kind)
}

// reparseCost is the independent reference: render the binding into SQL and
// cost it through DB.Cost, which lexes, parses, plans and runs it afresh.
func reparseCost(t *testing.T, db *DB, text string, vals map[string]sqltypes.Value, kind CostKind) float64 {
	t.Helper()
	sql, err := sqltemplate.MustParse(text).Instantiate(vals)
	if err != nil {
		t.Fatalf("instantiate %q: %v", text, err)
	}
	c, err := db.Cost(context.Background(), sql, kind)
	if err != nil {
		t.Fatalf("reparse cost %q: %v", sql, err)
	}
	return c
}

// TestSessionCostMatchesReparse pins the value-environment execution path to
// the literal-materialized reference: for every template and binding, a
// RowsProcessed probe through one warm session must equal DB.Cost on the
// rendered SQL exactly — same executor, one running the immutable skeleton
// under a value overlay with an arena, the other re-parsing and re-planning
// a value-substituted statement.
func TestSessionCostMatchesReparse(t *testing.T) {
	db := OpenTPCH(42, 0.02) // small: the correlated template is quadratic
	sess := db.newSession()
	for ti, text := range sessionTemplates {
		prep, err := db.Prepare(text)
		if err != nil {
			t.Fatalf("template %d: %v", ti, err)
		}
		for i := 0; i < 12; i++ {
			want := reparseCost(t, db, text, sessionVals(i), RowsProcessed)
			got, err := sessionCost(sess, prep, sessionVals(i), RowsProcessed)
			if err != nil {
				t.Fatalf("template %d binding %d: session: %v", ti, i, err)
			}
			if got != want {
				t.Fatalf("template %d binding %d: session rows %v != reparse %v", ti, i, got, want)
			}
		}
	}
}

// TestSessionConcurrentMixedProbes is the multi-session race hammer: 8
// goroutines, each with its own dedicated session, fire measured and estimate
// probes against one shared Prepared per template. There is no lock left on
// the measured path, so under -race this doubles as the proof that probe
// state never aliases across sessions; every observed cost must equal the
// single-threaded reference.
func TestSessionConcurrentMixedProbes(t *testing.T) {
	db := OpenTPCH(42, 0.02) // small: the correlated template is quadratic
	ctx := context.Background()
	const bindings = 12
	preps := make([]*Prepared, len(sessionTemplates))
	wantRows := make([][]float64, len(sessionTemplates))
	wantCard := make([][]float64, len(sessionTemplates))
	for ti, text := range sessionTemplates {
		prep, err := db.Prepare(text)
		if err != nil {
			t.Fatalf("template %d: %v", ti, err)
		}
		preps[ti] = prep
		wantRows[ti] = make([]float64, bindings)
		wantCard[ti] = make([]float64, bindings)
		for i := 0; i < bindings; i++ {
			wantRows[ti][i] = reparseCost(t, db, text, sessionVals(i), RowsProcessed)
			if wantCard[ti][i], err = prep.Cost(ctx, sessionVals(i), Cardinality); err != nil {
				t.Fatalf("reference cardinality %d/%d: %v", ti, i, err)
			}
		}
	}

	const goroutines = 8
	const iters = 36
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := db.newSession()
			for it := 0; it < iters; it++ {
				ti := (g + it) % len(preps)
				i := (g*5 + it) % bindings
				if it%4 == 3 {
					// Estimate probe through the same session.
					c, err := sessionCost(sess, preps[ti], sessionVals(i), Cardinality)
					if err != nil {
						errs[g] = err
						return
					}
					if c != wantCard[ti][i] {
						errs[g] = fmt.Errorf("estimate %d/%d: %v != %v", ti, i, c, wantCard[ti][i])
						return
					}
					continue
				}
				c, err := sessionCost(sess, preps[ti], sessionVals(i), RowsProcessed)
				if err != nil {
					errs[g] = err
					return
				}
				if c != wantRows[ti][i] {
					errs[g] = fmt.Errorf("measured %d/%d: %v != %v", ti, i, c, wantRows[ti][i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestCostBatchParallelDeterministic checks the fan-out sweep: identical cost
// vectors at parallelism 1, 2, and 8, equal to per-probe re-parse costs, with
// counter movement that does not depend on the parallel level — one batch,
// one execute and one prepared/session probe per sweep entry.
func TestCostBatchParallelDeterministic(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	prep, err := db.Prepare(sessionTemplates[1])
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	sweep := make([]map[string]sqltypes.Value, n)
	want := make([]float64, n)
	for i := range sweep {
		sweep[i] = sessionVals(i)
		want[i] = reparseCost(t, db, sessionTemplates[1], sweep[i], RowsProcessed)
	}
	for _, parallel := range []int{1, 2, 8} {
		batches0, probes0 := db.PreparedBatches(), db.PreparedProbes()
		execs0, sessProbes0 := db.ExecCalls(), db.SessionProbes()
		got, err := prep.CostBatchParallel(ctx, sweep, RowsProcessed, parallel)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parallel=%d probe %d: %v != %v", parallel, i, got[i], want[i])
			}
		}
		if d := db.PreparedBatches() - batches0; d != 1 {
			t.Errorf("parallel=%d: batches moved %d, want 1", parallel, d)
		}
		if d := db.PreparedProbes() - probes0; d != n {
			t.Errorf("parallel=%d: prepared probes moved %d, want %d", parallel, d, n)
		}
		if d := db.ExecCalls() - execs0; d != n {
			t.Errorf("parallel=%d: exec calls moved %d, want %d", parallel, d, n)
		}
		if d := db.SessionProbes() - sessProbes0; d != n {
			t.Errorf("parallel=%d: session probes moved %d, want %d", parallel, d, n)
		}
	}
}

// TestCostBatchParallelValidatesFirst: an invalid binding anywhere in the
// sweep fails the whole sweep before any probe runs — no counter moves at
// all, matching the single-probe validate-first contract.
func TestCostBatchParallelValidatesFirst(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	prep, err := db.Prepare(sessionTemplates[0])
	if err != nil {
		t.Fatal(err)
	}
	sweep := []map[string]sqltypes.Value{
		sessionVals(0),
		{"p_1": sqltypes.NewInt(3)}, // p_2 missing
		sessionVals(1),
	}
	batches0, probes0, execs0 := db.PreparedBatches(), db.PreparedProbes(), db.ExecCalls()
	if _, err := prep.CostBatchParallel(ctx, sweep, RowsProcessed, 4); err == nil || !strings.Contains(err.Error(), "p_2") {
		t.Fatalf("want missing-placeholder error naming p_2, got %v", err)
	}
	if db.PreparedBatches() != batches0 || db.PreparedProbes() != probes0 || db.ExecCalls() != execs0 {
		t.Fatal("a sweep that fails validation must move no counters")
	}
}

// TestConcurrentFirstProbesShareOneProgram races the first measured probes
// of fresh Prepareds: an 8-worker CostBatchParallel sweep is each template's
// first use, so its workers reach the lazy program build together (run it
// under -race). Every cost must equal a CostBatch sweep through another
// fresh Prepared, and a template probed only by estimate kinds must never
// build a program.
func TestConcurrentFirstProbesShareOneProgram(t *testing.T) {
	db := OpenTPCH(42, 0.01)
	ctx := context.Background()
	const n = 16
	sweep := make([]map[string]sqltypes.Value, n)
	for i := range sweep {
		sweep[i] = sessionVals(i)
	}
	for ti, text := range sessionTemplates {
		serial, err := db.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		want, err := serial.CostBatch(ctx, sweep, RowsProcessed)
		if err != nil {
			t.Fatalf("template %d: CostBatch: %v", ti, err)
		}
		fresh, err := db.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fresh.CostBatchParallel(ctx, sweep, RowsProcessed, 8)
		if err != nil {
			t.Fatalf("template %d: CostBatchParallel: %v", ti, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("template %d probe %d: parallel first probes give %v, CostBatch %v", ti, i, got[i], want[i])
			}
		}
		if fresh.prog == nil || serial.prog == nil {
			t.Fatalf("template %d: measured probes left no program", ti)
		}
		est, err := db.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := est.CostBatchParallel(ctx, sweep, PlanCost, 8); err != nil {
			t.Fatal(err)
		}
		if _, err := est.Cost(ctx, sweep[0], Cardinality); err != nil {
			t.Fatal(err)
		}
		if est.prog != nil {
			t.Fatalf("template %d: estimate probes built an executor program", ti)
		}
	}
}
