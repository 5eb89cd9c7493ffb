package exec_test

import (
	"context"
	"strings"
	"testing"

	"sqlbarber/internal/catalog"
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

// TestBoundExecutionMatchesMaterializedDifferential is the equivalence fuzz
// for value-environment execution: for generated templates across both
// evaluation schemas and a spread of specification shapes, executing the
// compiled skeleton under an immutable value environment (BindParams +
// RunBoundArena, once with a fresh arena and again through a reused one) must return exactly the same result rows
// and RowsProcessed as the literal-materialized reference — rendering the
// binding into SQL, re-parsing, re-planning, and running the old Run path.
// Bindings are LHS-sampled from each template's derived search space, the
// same regions §5.1 profiling and §5.3 BO probing execute.
func TestBoundExecutionMatchesMaterializedDifferential(t *testing.T) {
	datasets := []struct {
		name string
		open func(int64) *engine.DB
	}{
		{"tpch", func(seed int64) *engine.DB { return engine.OpenTPCH(seed, 0.02) }},
		{"imdb", func(seed int64) *engine.DB { return engine.OpenIMDB(seed, 0.02) }},
	}
	specShapes := []spec.Spec{
		{NumJoins: spec.Int(0), NumPredicates: spec.Int(1)},
		{NumJoins: spec.Int(0), NumPredicates: spec.Int(2), NestedQuery: spec.Bool(true)},
		{NumJoins: spec.Int(1), NumPredicates: spec.Int(2)},
		{NumJoins: spec.Int(1), NumPredicates: spec.Int(1), GroupBy: spec.Bool(true), NumAggregations: spec.Int(2)},
		{NumJoins: spec.Int(2), NumPredicates: spec.Int(3)},
		{NumJoins: spec.Int(2), NumPredicates: spec.Int(2), NestedQuery: spec.Bool(true), GroupBy: spec.Bool(true)},
		{NumJoins: spec.Int(0), NumPredicates: spec.Int(2), ComplexScalar: spec.Bool(true)},
		// IN-subquery and GROUP BY shapes for the executor's IN hash sets and
		// reused group-key buffer, all through the one shared arena below.
		{NumJoins: spec.Int(1), NumPredicates: spec.Int(1), NestedQuery: spec.Bool(true)},
		{NumJoins: spec.Int(0), NumPredicates: spec.Int(1), GroupBy: spec.Bool(true), NumAggregations: spec.Int(1)},
		{NumJoins: spec.Int(2), NumPredicates: spec.Int(1), NestedQuery: spec.Bool(true), GroupBy: spec.Bool(true), NumAggregations: spec.Int(2)},
	}
	const probesPerTemplate = 8
	compared := 0
	// arenaIn and arenaGroup count arena-run probes of templates with an IN
	// subquery and with GROUP BY. One arena serves every probe, unreset, as a
	// session's does.
	arenaIn, arenaGroup := 0, 0
	var arena exec.Arena
	for _, ds := range datasets {
		for seed := int64(1); seed <= 3; seed++ {
			db := ds.open(seed)
			schema := db.Schema()
			store := db.Store()
			gen := generator.New(db, llm.NewSim(llm.Perfect(seed)), generator.Options{Seed: seed})
			for si, s := range specShapes {
				res, err := gen.Generate(context.Background(), s)
				if err != nil {
					t.Fatalf("%s seed %d spec %d: generate: %v", ds.name, seed, si, err)
				}
				if !res.Valid {
					t.Fatalf("%s seed %d spec %d: invalid template:\n%s", ds.name, seed, si, res.Template.SQL())
				}
				tmpl := res.Template

				stmt, err := sqlparser.Parse(tmpl.SQL())
				if err != nil {
					t.Fatalf("%s seed %d spec %d: parse template: %v", ds.name, seed, si, err)
				}
				cq, err := plan.Compile(schema, stmt)
				if err != nil {
					t.Fatalf("%s seed %d spec %d: compile: %v\n%s", ds.name, seed, si, err, tmpl.SQL())
				}

				bindings, err := tmpl.BindPlaceholders(schema)
				if err != nil {
					t.Fatalf("%s seed %d spec %d: bind placeholders: %v", ds.name, seed, si, err)
				}
				check := func(pi int, vals map[string]sqltypes.Value, sql string) {
					t.Helper()
					ref, refErr := runMaterialized(t, store, schema, sql)
					params, err := cq.BindVals(vals)
					if err != nil {
						t.Fatalf("%s seed %d spec %d probe %d: BindVals: %v", ds.name, seed, si, pi, err)
					}
					bp := cq.BindParams(params)
					got, gotErr := exec.RunBoundArena(store, bp, new(exec.Arena))
					if (refErr == nil) != (gotErr == nil) {
						t.Fatalf("%s seed %d spec %d probe %d: error divergence: ref %v, bound %v\n%s",
							ds.name, seed, si, pi, refErr, gotErr, sql)
					}
					if refErr != nil {
						return
					}
					compareResults(t, ds.name, seed, si, pi, "fresh arena", sql, ref, got)
					gotA, err := exec.RunBoundArena(store, bp, &arena)
					if err != nil {
						t.Fatalf("%s seed %d spec %d probe %d: reused arena: %v", ds.name, seed, si, pi, err)
					}
					compareResults(t, ds.name, seed, si, pi, "reused arena", sql, ref, gotA)
					compared++
					if strings.Contains(tmpl.SQL(), " IN (SELECT ") {
						arenaIn++
					}
					if len(stmt.GroupBy) > 0 {
						arenaGroup++
					}
				}
				if len(bindings) == 0 {
					check(0, nil, tmpl.SQL())
					continue
				}
				space, err := profiler.BuildSearchSpace(tmpl, bindings)
				if err != nil {
					t.Fatalf("%s seed %d spec %d: search space: %v", ds.name, seed, si, err)
				}
				boSpace := space.BOSpace()
				rng := prand.New(seed, prand.StageProfile, prand.HashString(tmpl.SQL()))
				for pi, u := range stats.LatinHypercube(rng, probesPerTemplate, len(space.Dims)) {
					raw := boSpace.Denormalize(u)
					vals := space.ValuesFor(raw)
					sql, err := tmpl.Instantiate(vals)
					if err != nil {
						t.Fatalf("%s seed %d spec %d probe %d: instantiate: %v", ds.name, seed, si, pi, err)
					}
					check(pi, vals, sql)
				}
			}
		}
	}
	if compared < 300 {
		t.Fatalf("differential fuzz compared only %d probes; expected at least 300", compared)
	}
	if arenaIn == 0 || arenaGroup == 0 {
		t.Fatalf("shared-arena probes: %d with an IN subquery, %d with GROUP BY; want both > 0", arenaIn, arenaGroup)
	}
	t.Logf("differential fuzz: %d bound-vs-materialized executions, all identical (%d IN-subquery, %d GROUP BY through the shared arena)",
		compared, arenaIn, arenaGroup)
}

// runMaterialized is the test-only reference implementation: the
// pre-session literal-materialized path — parse the rendered SQL, plan it
// fresh, execute through plain Run.
func runMaterialized(t *testing.T, store *storage.Database, schema *catalog.Schema, sql string) (*exec.Result, error) {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse rendered SQL: %v\n%s", err, sql)
	}
	q, err := plan.Build(schema, stmt)
	if err != nil {
		t.Fatalf("build rendered SQL: %v\n%s", err, sql)
	}
	return exec.Run(store, q)
}

// compareResults asserts exact equality of row count, RowsProcessed, and
// every output value. Column *names* are allowed to differ: a select item
// containing a parameter slot renders its compile-time neutral literal in the
// skeleton, which never affects data.
func compareResults(t *testing.T, ds string, seed int64, si, pi int, arm, sql string, ref, got *exec.Result) {
	t.Helper()
	if got.RowsTouched != ref.RowsTouched {
		t.Fatalf("%s seed %d spec %d probe %d (%s): RowsProcessed %d != %d\n%s",
			ds, seed, si, pi, arm, got.RowsTouched, ref.RowsTouched, sql)
	}
	if len(got.Rows) != len(ref.Rows) {
		t.Fatalf("%s seed %d spec %d probe %d (%s): %d rows != %d rows\n%s",
			ds, seed, si, pi, arm, len(got.Rows), len(ref.Rows), sql)
	}
	for ri := range ref.Rows {
		if renderRow(got.Rows[ri]) != renderRow(ref.Rows[ri]) {
			t.Fatalf("%s seed %d spec %d probe %d (%s): row %d diverged:\n  bound: %s\n  ref:   %s\n%s",
				ds, seed, si, pi, arm, ri, renderRow(got.Rows[ri]), renderRow(ref.Rows[ri]), sql)
		}
	}
}

func renderRow(r []sqltypes.Value) string {
	var b strings.Builder
	for _, v := range r {
		b.WriteString(v.String())
		b.WriteByte('|')
	}
	return b.String()
}
