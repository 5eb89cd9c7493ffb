package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

func TestRowsProcessedCostKind(t *testing.T) {
	db := testDB(t)
	small, err := db.Cost(context.Background(), "SELECT * FROM region", RowsProcessed)
	if err != nil {
		t.Fatal(err)
	}
	if small != 5 {
		t.Fatalf("region scan rows processed = %v, want 5", small)
	}
	big, err := db.Cost(context.Background(), "SELECT * FROM lineitem", RowsProcessed)
	if err != nil {
		t.Fatal(err)
	}
	if big != 3000 {
		t.Fatalf("lineitem scan rows processed = %v, want 3000", big)
	}
	joined, err := db.Cost(context.Background(), "SELECT * FROM lineitem AS l JOIN orders AS o ON l.l_orderkey = o.o_orderkey", RowsProcessed)
	if err != nil {
		t.Fatal(err)
	}
	// scan 3000 + scan 750 + up to 3000 join outputs.
	if joined <= big {
		t.Fatalf("join rows processed %v must exceed scan %v", joined, big)
	}
}

func TestRowsProcessedMonotoneInSelectivity(t *testing.T) {
	db := testDB(t)
	// Scans touch all rows regardless of filters; a join's processed rows
	// shrink as the probe side shrinks.
	narrow, err := db.Cost(context.Background(), "SELECT * FROM lineitem AS l JOIN orders AS o ON l.l_orderkey = o.o_orderkey WHERE o.o_orderkey <= 10", RowsProcessed)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := db.Cost(context.Background(), "SELECT * FROM lineitem AS l JOIN orders AS o ON l.l_orderkey = o.o_orderkey WHERE o.o_orderkey <= 700", RowsProcessed)
	if err != nil {
		t.Fatal(err)
	}
	if narrow >= wide {
		t.Fatalf("rows processed not responsive to predicate: narrow=%v wide=%v", narrow, wide)
	}
}

func TestConcurrentExplainAndExecute(t *testing.T) {
	db := testDB(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				sql := fmt.Sprintf("SELECT COUNT(*) FROM orders WHERE o_orderkey <= %d", (g+1)*(i+1)*10)
				if _, err := db.Explain(sql); err != nil {
					errs <- err
					return
				}
				if _, err := db.Execute(sql); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent access: %v", err)
	}
	if db.ExplainCalls() != 64 || db.ExecCalls() != 64 {
		t.Fatalf("counters under concurrency: %d/%d", db.ExplainCalls(), db.ExecCalls())
	}
}

func TestCostKindStrings(t *testing.T) {
	cases := map[CostKind]string{
		Cardinality:   "cardinality",
		PlanCost:      "plan_cost",
		RowsProcessed: "rows_processed",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%v.String() = %q", k, k.String())
		}
	}
}
