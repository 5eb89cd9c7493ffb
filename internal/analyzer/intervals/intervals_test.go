package intervals_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sync"
	"testing"

	"sqlbarber/internal/analyzer/intervals"
	"sqlbarber/internal/engine"
	"sqlbarber/internal/generator"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/plan"
	"sqlbarber/internal/prand"
	"sqlbarber/internal/profiler"
	"sqlbarber/internal/spec"
	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/sqltemplate"
	"sqlbarber/internal/stats"
)

// fuzzShapes sweeps the specification space the pipeline exercises: plain
// scans, joins, aggregation, nesting, and complex scalars.
var fuzzShapes = []spec.Spec{
	{NumJoins: spec.Int(0), NumPredicates: spec.Int(1)},
	{NumJoins: spec.Int(0), NumPredicates: spec.Int(2), NestedQuery: spec.Bool(true)},
	{NumJoins: spec.Int(1), NumPredicates: spec.Int(2)},
	{NumJoins: spec.Int(1), NumPredicates: spec.Int(1), GroupBy: spec.Bool(true), NumAggregations: spec.Int(2)},
	{NumJoins: spec.Int(2), NumPredicates: spec.Int(3)},
	{NumJoins: spec.Int(2), NumPredicates: spec.Int(2), NestedQuery: spec.Bool(true), GroupBy: spec.Bool(true)},
	{NumJoins: spec.Int(0), NumPredicates: spec.Int(2), ComplexScalar: spec.Bool(true)},
}

// generateTemplates produces the fuzz corpus for one database.
func generateTemplates(t *testing.T, db *engine.DB, seed int64) []*sqltemplate.Template {
	t.Helper()
	gen := generator.New(db, llm.NewSim(llm.Perfect(seed)), generator.Options{Seed: seed})
	var out []*sqltemplate.Template
	for si, s := range fuzzShapes {
		res, err := gen.Generate(context.Background(), s)
		if err != nil {
			t.Fatalf("seed %d spec %d: generate: %v", seed, si, err)
		}
		if !res.Valid {
			t.Fatalf("seed %d spec %d: invalid template:\n%s", seed, si, res.Template.SQL())
		}
		out = append(out, res.Template)
	}
	return out
}

// compileFresh compiles a template's SQL on a fresh parse (plan.Compile
// takes ownership of the statement it is given).
func compileFresh(t *testing.T, db *engine.DB, tmpl *sqltemplate.Template) *plan.CompiledQuery {
	t.Helper()
	stmt, err := sqlparser.Parse(tmpl.SQL())
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, tmpl.SQL())
	}
	cq, err := plan.Compile(db.Schema(), stmt)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, tmpl.SQL())
	}
	return cq
}

// TestBoundsSoundnessDifferential is the machine-checkable soundness
// contract: for every generated TPC-H/IMDB template, at least 300 concrete
// value environments are sampled through the SAME denormalization path the
// profiler and BO search use, and every environment's CostWith result must
// lie inside the static bounds — exact float64 comparison, no tolerance.
// The sample mixes a space-filling LHS design with the exact corners of the
// unit cube per dimension, so domain endpoints (where endpoint-evaluated
// interval arithmetic is tightest) are stressed directly.
func TestBoundsSoundnessDifferential(t *testing.T) {
	datasets := []struct {
		name string
		open func(int64) *engine.DB
	}{
		{"tpch", func(seed int64) *engine.DB { return engine.OpenTPCH(seed, 0.05) }},
		{"imdb", func(seed int64) *engine.DB { return engine.OpenIMDB(seed, 0.05) }},
	}
	const envsPerTemplate = 300
	templates, checked := 0, 0
	for _, ds := range datasets {
		for seed := int64(1); seed <= 3; seed++ {
			db := ds.open(seed)
			for ti, tmpl := range generateTemplates(t, db, seed) {
				a := intervals.Analyze(db.Schema(), tmpl, engine.PlanCost, nil)
				if !a.Available {
					t.Fatalf("%s seed %d template %d: analysis unavailable: %s\n%s", ds.name, seed, ti, a.Reason, tmpl.SQL())
				}
				templates++
				cq := compileFresh(t, db, tmpl)
				bindings, err := tmpl.BindPlaceholders(db.Schema())
				if err != nil {
					t.Fatalf("%s seed %d template %d: bind: %v", ds.name, seed, ti, err)
				}
				if len(bindings) == 0 {
					est, err := cq.CostWith(nil)
					if err != nil {
						t.Fatalf("%s seed %d template %d: CostWith: %v", ds.name, seed, ti, err)
					}
					assertContained(t, a, est, ds.name, seed, ti, tmpl.SQL())
					checked++
					continue
				}
				space, err := profiler.BuildSearchSpace(tmpl, bindings)
				if err != nil {
					t.Fatalf("%s seed %d template %d: search space: %v", ds.name, seed, ti, err)
				}
				boSpace := space.BOSpace()
				rng := prand.New(seed, prand.StageProfile, prand.HashString(tmpl.SQL()))
				unit := stats.LatinHypercube(rng, envsPerTemplate, len(space.Dims))
				// Exact unit-cube corners per dimension: all-lo, all-hi, and
				// each single-dimension extreme.
				corners := [][]float64{make([]float64, len(space.Dims)), make([]float64, len(space.Dims))}
				for i := range corners[1] {
					corners[1][i] = 1
				}
				for d := range space.Dims {
					lo := make([]float64, len(space.Dims))
					hi := make([]float64, len(space.Dims))
					for i := range hi {
						hi[i] = 0.5
						lo[i] = 0.5
					}
					lo[d], hi[d] = 0, 1
					corners = append(corners, lo, hi)
				}
				for pi, u := range append(unit, corners...) {
					raw := boSpace.Denormalize(u)
					vals := space.ValuesFor(raw)
					est, err := cq.CostWith(vals)
					if err != nil {
						t.Fatalf("%s seed %d template %d probe %d: CostWith: %v", ds.name, seed, ti, pi, err)
					}
					assertContained(t, a, est, ds.name, seed, ti, tmpl.SQL())
					checked++
				}
			}
		}
	}
	if checked < 300*templates/2 {
		t.Fatalf("fuzz checked only %d envs across %d templates", checked, templates)
	}
	t.Logf("soundness fuzz: %d templates, %d concrete envs, all inside static bounds", templates, checked)
}

func assertContained(t *testing.T, a *intervals.Analysis, est plan.Estimate, ds string, seed int64, ti int, sql string) {
	t.Helper()
	if !(a.Est.Rows.Lo <= est.Rows && est.Rows <= a.Est.Rows.Hi) {
		t.Fatalf("%s seed %d template %d: rows %v outside bounds [%v, %v]\n%s",
			ds, seed, ti, est.Rows, a.Est.Rows.Lo, a.Est.Rows.Hi, sql)
	}
	if !(a.Est.Cost.Lo <= est.Cost && est.Cost <= a.Est.Cost.Hi) {
		t.Fatalf("%s seed %d template %d: cost %v outside bounds [%v, %v]\n%s",
			ds, seed, ti, est.Cost, a.Est.Cost.Lo, a.Est.Cost.Hi, sql)
	}
}

// TestIntervalAnalysisConcurrentWithProbes is the race hammer: 8 goroutines
// share one CompiledQuery, half running interval analyses (EstimateBounds)
// and half running concrete CostWith probes, all asserting the soundness
// contract as they go. Run under -race this proves the abstract interpreter
// shares the compiled statement without writes.
func TestIntervalAnalysisConcurrentWithProbes(t *testing.T) {
	db := engine.OpenTPCH(1, 0.05)
	tmpl := generateTemplates(t, db, 1)[2] // 1-join, 2-predicate shape
	bindings, err := tmpl.BindPlaceholders(db.Schema())
	if err != nil || len(bindings) == 0 {
		t.Fatalf("need a placeholder-bearing template: %v", err)
	}
	space, err := profiler.BuildSearchSpace(tmpl, bindings)
	if err != nil {
		t.Fatal(err)
	}
	boSpace := space.BOSpace()
	cq := compileFresh(t, db, tmpl)
	a := intervals.Analyze(db.Schema(), tmpl, engine.PlanCost, nil)
	if !a.Available {
		t.Fatalf("analysis unavailable: %s", a.Reason)
	}
	domains := map[string]plan.ParamDomain{}
	for _, d := range space.Dims {
		if d.Options != nil {
			domains[d.Binding.Name] = plan.ParamDomain{Options: d.Options}
		} else {
			domains[d.Binding.Name] = plan.ParamDomain{Numeric: true, Lo: d.Param.Lo - 1, Hi: d.Param.Hi + 1}
		}
	}

	const goroutines = 8
	const iters = 200
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := prand.New(7, prand.StageProfile, int64(g))
			for i := 0; i < iters; i++ {
				if g%2 == 0 {
					if _, err := cq.EstimateBounds(domains); err != nil {
						errs <- err
						return
					}
					continue
				}
				u := make([]float64, len(space.Dims))
				for d := range u {
					u[d] = rng.Float64()
				}
				vals := space.ValuesFor(boSpace.Denormalize(u))
				est, err := cq.CostWith(vals)
				if err != nil {
					errs <- err
					return
				}
				if !(a.Est.Cost.Lo <= est.Cost && est.Cost <= a.Est.Cost.Hi) {
					t.Errorf("cost %v escaped bounds [%v, %v] under concurrency", est.Cost, a.Est.Cost.Lo, a.Est.Cost.Hi)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// The two constants below pin exact bits. They were computed before the
// plan estimators were rewritten as one generic definition over a
// point/interval domain; a change to either means an estimate moved, and
// with it the search boxes, the probes and the workloads.
const (
	boundsHashPinned   = "598818bd83b379c9"
	estimateHashPinned = "68820d007c310ca4"
)

// TestExactBitsPinned hashes the float64 bits of every EstimateBounds
// result over the soundness corpus: each template at its full slot domains,
// and at every per-cell domain projectBox bounds when it narrows the BO
// search box. The soundness fuzz checks containment only, so a looser or
// tighter bound would pass it while changing the boxes BO searches. The
// same corpus pins the point side too: CostWith at each LHS environment and
// unit-cube corner, plus the EXPLAIN text of a fresh plan.Build of the SQL
// rendered at each corner (scan kinds and per-operator estimates).
func TestExactBitsPinned(t *testing.T) {
	bh, eh := sha256.New(), sha256.New()
	put := func(h hash.Hash, fs ...float64) {
		for _, f := range fs {
			binary.Write(h, binary.LittleEndian, math.Float64bits(f))
		}
	}
	addBounds := func(est plan.BoundsEstimate) {
		put(bh, est.Rows.Lo, est.Rows.Hi, est.Cost.Lo, est.Cost.Hi)
	}
	bounds, estimates := 0, 0
	for _, open := range []func(int64) *engine.DB{
		func(seed int64) *engine.DB { return engine.OpenTPCH(seed, 0.05) },
		func(seed int64) *engine.DB { return engine.OpenIMDB(seed, 0.05) },
	} {
		for seed := int64(1); seed <= 3; seed++ {
			db := open(seed)
			for ti, tmpl := range generateTemplates(t, db, seed) {
				cq, space, full, err := intervals.Compile(db.Schema(), tmpl)
				if err != nil {
					t.Fatalf("seed %d template %d: %v", seed, ti, err)
				}
				est, err := cq.EstimateBounds(full)
				if err != nil {
					t.Fatalf("seed %d template %d: bounds: %v", seed, ti, err)
				}
				addBounds(est)
				bounds++
				if space == nil {
					continue
				}
				box := space.BOSpace()
				for i, d := range space.Dims {
					if d.Options != nil || !(box[i].Hi-box[i].Lo > 0) {
						continue
					}
					for c := 0; c < intervals.BoxCells; c++ {
						_, _, doms := intervals.CellDomains(full, d.Binding.Name, box[i], c)
						est, err := cq.EstimateBounds(doms)
						if err != nil {
							t.Fatalf("seed %d template %d cell %d/%d: bounds: %v", seed, ti, i, c, err)
						}
						addBounds(est)
						bounds++
					}
				}
				rng := prand.New(seed, prand.StageProfile, prand.HashString(tmpl.SQL()))
				unit := stats.LatinHypercube(rng, 300, len(space.Dims))
				corners := unitCorners(len(space.Dims))
				for pi, u := range append(unit, corners...) {
					vals := space.ValuesFor(box.Denormalize(u))
					est, err := cq.CostWith(vals)
					if err != nil {
						t.Fatalf("seed %d template %d probe %d: CostWith: %v", seed, ti, pi, err)
					}
					put(eh, est.Rows, est.Cost)
					estimates++
					if pi < len(unit) {
						continue
					}
					sql, err := tmpl.Instantiate(vals)
					if err != nil {
						t.Fatalf("seed %d template %d probe %d: instantiate: %v", seed, ti, pi, err)
					}
					stmt, err := sqlparser.Parse(sql)
					if err != nil {
						t.Fatalf("seed %d template %d probe %d: parse: %v", seed, ti, pi, err)
					}
					q, err := plan.Build(db.Schema(), stmt)
					if err != nil {
						t.Fatalf("seed %d template %d probe %d: build: %v", seed, ti, pi, err)
					}
					eh.Write([]byte(q.Explain()))
					put(eh, q.TotalCost())
				}
			}
		}
	}
	gotB := hex.EncodeToString(bh.Sum(nil))[:16]
	gotE := hex.EncodeToString(eh.Sum(nil))[:16]
	t.Logf("%d bounds hashed: %s; %d estimates hashed: %s", bounds, gotB, estimates, gotE)
	if gotB != boundsHashPinned {
		t.Errorf("bounds hash %s over %d results, want %s: some EstimateBounds result changed bits", gotB, bounds, boundsHashPinned)
	}
	if gotE != estimateHashPinned {
		t.Errorf("estimate hash %s over %d probes, want %s: some CostWith or Build result changed bits", gotE, estimates, estimateHashPinned)
	}
}

// unitCorners returns the exact unit-cube corners the soundness fuzz
// stresses: all-lo, all-hi, and each single-dimension extreme with the
// other dimensions at the midpoint.
func unitCorners(dims int) [][]float64 {
	corners := [][]float64{make([]float64, dims), make([]float64, dims)}
	for i := range corners[1] {
		corners[1][i] = 1
	}
	for d := 0; d < dims; d++ {
		lo := make([]float64, dims)
		hi := make([]float64, dims)
		for i := range hi {
			hi[i] = 0.5
			lo[i] = 0.5
		}
		lo[d], hi[d] = 0, 1
		corners = append(corners, lo, hi)
	}
	return corners
}
