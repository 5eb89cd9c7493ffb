package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"sqlbarber/internal/sqltypes"
)

// TestPreparedPartialBindingHasNoEffect is the regression test for the
// validate-first contract: a probe that fails placeholder validation must
// leave the prepared statement and the evaluation counters completely
// untouched, and must never poison a later probe with stale values. (The
// pre-compilation implementation assigned values into the AST's literal
// slots before checking for missing placeholders, so a failed probe could
// leave a half-written binding behind.)
func TestPreparedPartialBindingHasNoEffect(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	prep, err := db.Prepare("SELECT COUNT(*) FROM lineitem WHERE l_quantity >= {p_1} AND l_extendedprice < {p_2}")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	full := map[string]sqltypes.Value{"p_1": sqltypes.NewInt(10), "p_2": sqltypes.NewFloat(5000)}
	want, err := prep.Cost(ctx, full, Cardinality)
	if err != nil {
		t.Fatalf("full probe: %v", err)
	}

	db.ResetCounters()
	partial := map[string]sqltypes.Value{"p_1": sqltypes.NewInt(999999)}
	for _, kind := range []CostKind{Cardinality, PlanCost, RowsProcessed} {
		if _, err := prep.Cost(ctx, partial, kind); err == nil || !strings.Contains(err.Error(), "p_2") {
			t.Fatalf("kind %v: want missing-placeholder error naming p_2, got %v", kind, err)
		}
	}
	if n := db.ExplainCalls() + db.ExecCalls() + db.PreparedProbes(); n != 0 {
		t.Fatalf("failed probes must not move evaluation counters, moved %d", n)
	}

	got, err := prep.Cost(ctx, full, Cardinality)
	if err != nil {
		t.Fatalf("probe after failed binding: %v", err)
	}
	if got != want {
		t.Fatalf("failed partial binding poisoned later probe: %v != %v", got, want)
	}
}

// TestPreparedCostBatchMatchesSingleProbes checks the batched sweep: same
// costs as one-at-a-time probing, one batch counter tick, one probe counter
// tick per binding, and identical explain accounting.
func TestPreparedCostBatchMatchesSingleProbes(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	prep, err := db.Prepare("SELECT COUNT(*) FROM orders WHERE o_orderkey <= {p_1}")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	var sweep []map[string]sqltypes.Value
	var want []float64
	for i := 0; i < 17; i++ {
		vals := map[string]sqltypes.Value{"p_1": sqltypes.NewInt(int64(10 + 40*i))}
		c, err := prep.Cost(ctx, vals, Cardinality)
		if err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		sweep = append(sweep, vals)
		want = append(want, c)
	}

	db.ResetCounters()
	got, err := prep.CostBatch(ctx, sweep, Cardinality)
	if err != nil {
		t.Fatalf("CostBatch: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("CostBatch returned %d costs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batched cost %d diverged: %v != %v", i, got[i], want[i])
		}
	}
	if db.PreparedBatches() != 1 {
		t.Fatalf("want 1 batch counted, got %d", db.PreparedBatches())
	}
	if db.PreparedProbes() != int64(len(sweep)) {
		t.Fatalf("want %d probes counted, got %d", len(sweep), db.PreparedProbes())
	}
	if db.ExplainCalls() != int64(len(sweep)) {
		t.Fatalf("batched probes must count one explain each, got %d", db.ExplainCalls())
	}
}

// TestPreparedCostBatchPartialOnError checks the documented failure
// contract: costs computed before the failing binding are returned, probes
// after it are not attempted.
func TestPreparedCostBatchPartialOnError(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	prep, err := db.Prepare("SELECT COUNT(*) FROM orders WHERE o_orderkey <= {p_1}")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	sweep := []map[string]sqltypes.Value{
		{"p_1": sqltypes.NewInt(10)},
		{"p_1": sqltypes.NewInt(20)},
		{}, // missing p_1
		{"p_1": sqltypes.NewInt(30)},
	}
	db.ResetCounters()
	got, err := prep.CostBatch(ctx, sweep, Cardinality)
	if err == nil || !strings.Contains(err.Error(), "p_1") {
		t.Fatalf("want missing-placeholder error naming p_1, got %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("want 2 partial results before the failure, got %d", len(got))
	}
	if db.PreparedProbes() != 2 || db.ExplainCalls() != 2 {
		t.Fatalf("only attempted probes may count: probes=%d explains=%d",
			db.PreparedProbes(), db.ExplainCalls())
	}
}

// TestPreparedConcurrentProbes hammers one Prepared from 8 goroutines under
// the race detector: concurrent lock-free estimate probes (Cost and
// CostBatch) interleaved with measured probes that execute the skeleton under
// a per-session value environment. Every result must equal the
// single-threaded reference.
func TestPreparedConcurrentProbes(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	prep, err := db.Prepare("SELECT COUNT(*) FROM lineitem WHERE l_quantity >= {p_1} AND l_extendedprice < {p_2}")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	const bindings = 16
	valsAt := func(i int) map[string]sqltypes.Value {
		return map[string]sqltypes.Value{
			"p_1": sqltypes.NewInt(int64(1 + i*3)),
			"p_2": sqltypes.NewFloat(float64(500 + i*700)),
		}
	}
	wantCard := make([]float64, bindings)
	wantRows := make([]float64, bindings)
	for i := 0; i < bindings; i++ {
		if wantCard[i], err = prep.Cost(ctx, valsAt(i), Cardinality); err != nil {
			t.Fatalf("reference cardinality %d: %v", i, err)
		}
		if wantRows[i], err = prep.Cost(ctx, valsAt(i), RowsProcessed); err != nil {
			t.Fatalf("reference rows %d: %v", i, err)
		}
	}

	const goroutines = 8
	const iters = 120
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fail := func(err error) { errs[g] = err }
			for it := 0; it < iters; it++ {
				i := (g + it) % bindings
				switch {
				case it%40 == 13:
					// Measured probe: executes lock-free through a pooled
					// session while estimate probes keep running.
					c, err := prep.Cost(ctx, valsAt(i), RowsProcessed)
					if err != nil {
						fail(err)
						return
					}
					if c != wantRows[i] {
						fail(fmt.Errorf("rows probe %d: %v != %v", i, c, wantRows[i]))
						return
					}
				case it%7 == 0:
					sweep := []map[string]sqltypes.Value{valsAt(i), valsAt((i + 1) % bindings)}
					cs, err := prep.CostBatch(ctx, sweep, Cardinality)
					if err != nil {
						fail(err)
						return
					}
					if cs[0] != wantCard[i] || cs[1] != wantCard[(i+1)%bindings] {
						fail(fmt.Errorf("batch probe %d diverged", i))
						return
					}
				default:
					c, err := prep.Cost(ctx, valsAt(i), Cardinality)
					if err != nil {
						fail(err)
						return
					}
					if c != wantCard[i] {
						fail(fmt.Errorf("estimate probe %d: %v != %v", i, c, wantCard[i]))
						return
					}
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
