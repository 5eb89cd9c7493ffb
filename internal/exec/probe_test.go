package exec_test

import (
	"context"
	"fmt"
	"testing"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/exec"
	"sqlbarber/internal/generator"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/plan"
	"sqlbarber/internal/prand"
	"sqlbarber/internal/profiler"
	"sqlbarber/internal/spec"
	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/sqltypes"
	"sqlbarber/internal/stats"
	"sqlbarber/internal/storage"
)

// TestProbeCountsLikeRun checks the count-only path of measured probes
// against Run: on generated TPC-H templates at LHS-sampled bindings, and on
// one statement per construct that makes a skippable phase fallible (a
// failing builtin, a misplaced aggregate, SELECT * under GROUP BY, a
// subquery in the select list, ORDER BY, HAVING or a two-table residual),
// Program.Probe must return Run's RowsTouched and Run's error.
func TestProbeCountsLikeRun(t *testing.T) {
	db := engine.OpenTPCH(4, 0.02)
	schema, store := db.Schema(), db.Store()
	var arena exec.Arena
	compared := 0
	// Generated templates.
	gen := generator.New(db, llm.NewSim(llm.Perfect(4)), generator.Options{Seed: 4})
	for si, s := range []spec.Spec{
		{NumJoins: spec.Int(0), NumPredicates: spec.Int(2), NestedQuery: spec.Bool(true)},
		{NumJoins: spec.Int(1), NumPredicates: spec.Int(2)},
		{NumJoins: spec.Int(1), NumPredicates: spec.Int(1), GroupBy: spec.Bool(true), NumAggregations: spec.Int(2)},
		{NumJoins: spec.Int(2), NumPredicates: spec.Int(2), NestedQuery: spec.Bool(true), GroupBy: spec.Bool(true)},
		{NumJoins: spec.Int(0), NumPredicates: spec.Int(2), ComplexScalar: spec.Bool(true)},
		{NumJoins: spec.Int(1), NumPredicates: spec.Int(1), NestedQuery: spec.Bool(true)},
	} {
		res, err := gen.Generate(context.Background(), s)
		if err != nil || !res.Valid {
			t.Fatalf("spec %d: generate: %v (valid %v)", si, err, res != nil && res.Valid)
		}
		tmpl := res.Template
		stmt, err := sqlparser.Parse(tmpl.SQL())
		if err != nil {
			t.Fatal(err)
		}
		cq, err := plan.Compile(schema, stmt)
		if err != nil {
			t.Fatal(err)
		}
		prog := exec.Compile(cq.Query(), cq.Slot)
		bindings, err := tmpl.BindPlaceholders(schema)
		if err != nil {
			t.Fatal(err)
		}
		if len(bindings) == 0 {
			compareProbe(t, fmt.Sprintf("spec %d", si), prog, store, nil, &arena)
			compared++
			continue
		}
		space, err := profiler.BuildSearchSpace(tmpl, bindings)
		if err != nil {
			t.Fatal(err)
		}
		boSpace := space.BOSpace()
		rng := prand.New(4, prand.StageProfile, prand.HashString(tmpl.SQL()))
		for pi, u := range stats.LatinHypercube(rng, 8, len(space.Dims)) {
			params, err := cq.BindVals(space.ValuesFor(boSpace.Denormalize(u)))
			if err != nil {
				t.Fatal(err)
			}
			compareProbe(t, fmt.Sprintf("spec %d probe %d", si, pi), prog, store, params, &arena)
			compared++
		}
	}
	// Statements whose residual or output evaluation can fail or run
	// subqueries; fails pins whether Run fails, so each case keeps
	// exercising its construct.
	for _, tc := range []struct {
		sql   string
		fails bool
	}{
		{"SELECT r_name, (SELECT n_name FROM nation) FROM region", true},
		{"SELECT r_name FROM region ORDER BY (SELECT n_name FROM nation)", true},
		{"SELECT r_name FROM region ORDER BY (SELECT MAX(n_nationkey) FROM nation WHERE n_regionkey = r_regionkey)", false},
		{"SELECT DISTINCT n_regionkey, (SELECT COUNT(*) FROM customer WHERE c_nationkey = n_nationkey) FROM nation ORDER BY n_regionkey LIMIT 2", false},
		{"SELECT n_regionkey, COUNT(*) FROM nation GROUP BY n_regionkey HAVING COUNT(*) > (SELECT COUNT(*) FROM region WHERE r_regionkey < n_regionkey)", false},
		{"SELECT n_regionkey, (SELECT r_name FROM region) FROM nation GROUP BY n_regionkey", true},
		{"SELECT NOSUCH(r_name) FROM region", true},
		// ABS and ROUND fail on a string value only.
		{"SELECT ABS(r_name) FROM region", true},
		{"SELECT r_name, ROUND(r_name) FROM region", true},
		{"SELECT ABS(r_regionkey), ROUND(r_regionkey) FROM region", false},
		{"SELECT r_name FROM region ORDER BY NOSUCH(r_regionkey)", true},
		{"SELECT LENGTH(r_name, r_comment) FROM region", true},
		// GROUP BY through an alias evaluates the aggregate before any
		// group result exists, as does an aggregate's argument.
		{"SELECT COUNT(*) AS c FROM nation GROUP BY c", true},
		{"SELECT n_regionkey, SUM(COUNT(*)) FROM nation GROUP BY n_regionkey", true},
		{"SELECT * FROM region GROUP BY r_regionkey", true},
		{"SELECT * FROM region GROUP BY r_regionkey HAVING COUNT(*) > 1", false},
		{"SELECT n_regionkey FROM nation GROUP BY n_regionkey HAVING COUNT(*) > (SELECT r_regionkey FROM region)", true},
		// Subqueries in a residual conjunct that spans two tables add the
		// rows they scan, whether or not the output can be skipped.
		{"SELECT n_name FROM nation JOIN region ON n_regionkey = r_regionkey WHERE n_nationkey + r_regionkey IN (SELECT c_custkey FROM customer)", false},
		{"SELECT n_name FROM nation JOIN region ON n_regionkey = r_regionkey " +
			"WHERE EXISTS (SELECT c_custkey FROM customer WHERE c_nationkey = n_nationkey AND c_custkey < r_regionkey * 10)", false},
		{"SELECT n_name FROM nation JOIN region ON n_regionkey = r_regionkey WHERE n_nationkey < (SELECT c_custkey FROM customer)", true},
	} {
		stmt, err := sqlparser.Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		q, err := plan.Build(schema, stmt)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		prog := exec.Compile(q, nil)
		if _, err := prog.Run(store, nil, new(exec.Arena)); (err != nil) != tc.fails {
			t.Fatalf("%s: Run error %v, want failure %v", tc.sql, err, tc.fails)
		}
		compareProbe(t, tc.sql, prog, store, nil, &arena)
		compared++
	}
	t.Logf("%d probes counted like Run", compared)
}

// compareProbe runs prog at params through Run and through Probe, the
// latter on the shared arena as a session does, and fails on any
// difference in RowsTouched or in the error.
func compareProbe(t *testing.T, what string, prog *exec.Program, store *storage.Database, params []sqltypes.Value, arena *exec.Arena) {
	t.Helper()
	res, runErr := prog.Run(store, params, new(exec.Arena))
	touched, probeErr := prog.Probe(store, params, arena)
	if fmt.Sprint(runErr) != fmt.Sprint(probeErr) {
		t.Fatalf("%s: Run error %v, Probe error %v", what, runErr, probeErr)
	}
	if runErr == nil && res.RowsTouched != touched {
		t.Fatalf("%s: Run touched %d rows, Probe %d", what, res.RowsTouched, touched)
	}
}
