package pipeline

import (
	"context"
	"errors"
	"testing"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/stats"
)

// TestNewValidatesRequiredDeps asserts each positional dependency is checked
// up front with its coded error.
func TestNewValidatesRequiredDeps(t *testing.T) {
	db := engine.OpenTPCH(1, 0.02)
	oracle := llm.NewSim(llm.SimOptions{Seed: 1})
	specs := smallSpecs()
	target := stats.Uniform(0, 100, 2, 4)

	cases := []struct {
		name string
		err  error
		call func() (*Pipeline, error)
	}{
		{"nil db", ErrNilDB, func() (*Pipeline, error) { return New(nil, oracle, specs, target) }},
		{"nil oracle", ErrNilOracle, func() (*Pipeline, error) { return New(db, nil, specs, target) }},
		{"no specs", ErrNoSpecs, func() (*Pipeline, error) { return New(db, oracle, nil, target) }},
		{"nil target", ErrNilTarget, func() (*Pipeline, error) { return New(db, oracle, specs, nil) }},
	}
	for _, tc := range cases {
		if _, err := tc.call(); !errors.Is(err, tc.err) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.err)
		}
	}
}

// TestOptionValidation asserts every option with a domain rejects bad values
// with its coded error, matchable via errors.Is even through wrapping.
func TestOptionValidation(t *testing.T) {
	db := engine.OpenTPCH(1, 0.02)
	oracle := llm.NewSim(llm.SimOptions{Seed: 1})
	specs := smallSpecs()
	target := stats.Uniform(0, 100, 2, 4)

	cases := []struct {
		name string
		opt  Option
		err  error
	}{
		{"parallel 0", WithParallel(0), ErrBadParallel},
		{"parallel negative", WithParallel(-4), ErrBadParallel},
		{"profile fraction 0", WithProfileFraction(0), ErrBadProfileFraction},
		{"profile fraction >1", WithProfileFraction(1.5), ErrBadProfileFraction},
		{"unknown cost kind", WithCostKind(engine.CostKind(250)), ErrBadCostKind},
		{"nil sink", WithObs(nil), ErrNilSink},
	}
	for _, tc := range cases {
		if _, err := New(db, oracle, specs, target, tc.opt); !errors.Is(err, tc.err) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.err)
		}
	}
}

// TestNewDefaultsAndOverrides asserts the constructor seeds defaults and the
// options land in the effective config.
func TestNewDefaultsAndOverrides(t *testing.T) {
	db := engine.OpenTPCH(1, 0.02)
	oracle := llm.NewSim(llm.SimOptions{Seed: 1})
	target := stats.Uniform(0, 100, 2, 4)

	p, err := New(db, oracle, smallSpecs(), target)
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.cfg
	if cfg.Parallel != 1 {
		t.Errorf("default Parallel = %d, want 1", cfg.Parallel)
	}
	if cfg.ProfileFraction != 0.15 {
		t.Errorf("default ProfileFraction = %g, want 0.15", cfg.ProfileFraction)
	}

	sink := obs.NewCollector()
	p, err = New(db, oracle, smallSpecs(), target,
		WithSeed(42),
		WithParallel(4),
		WithCostKind(engine.PlanCost),
		WithProfileFraction(0.5),
		WithAblations(Ablations{NaiveSearch: true}),
		WithObs(sink),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg = p.cfg
	if cfg.Seed != 42 || cfg.Parallel != 4 || cfg.CostKind != engine.PlanCost ||
		cfg.ProfileFraction != 0.5 || !cfg.Ablations.NaiveSearch || cfg.Obs != obs.Sink(sink) {
		t.Errorf("options not applied: %+v", cfg)
	}
}

// TestAblationsString pins the labels the benchmark figures use.
func TestAblationsString(t *testing.T) {
	cases := []struct {
		a    Ablations
		want string
	}{
		{Ablations{}, "SQLBarber"},
		{Ablations{DisableRefine: true}, "No-Refine-Prune"},
		{Ablations{NaiveSearch: true}, "Naive-Search"},
		{Ablations{IndependentSampling: true}, "Independent-Sampling"},
		{Ablations{Phase1Only: true}, "Phase1-Only"},
		{Ablations{UniformTemplates: true}, "Uniform-Templates"},
		{Ablations{DisableRefine: true, NaiveSearch: true}, "No-Refine-Prune+Naive-Search"},
	}
	for _, tc := range cases {
		if got := tc.a.String(); got != tc.want {
			t.Errorf("%+v.String() = %q, want %q", tc.a, got, tc.want)
		}
	}
}

// TestAblationVariantsRun asserts each paper ablation reaches the stages:
// every variant still yields a workload that differs from the full method's,
// except the switches the small task gives nothing to act on.
func TestAblationVariantsRun(t *testing.T) {
	run := func(t *testing.T, a Ablations) string {
		res, err := smallPipeline(t, 13, llm.NewSim(llm.SimOptions{Seed: 13}), WithAblations(a)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Workload) == 0 {
			t.Fatal("empty workload")
		}
		return runSignature(res)
	}
	baseline := run(t, Ablations{})
	for _, tc := range []struct {
		name  string
		a     Ablations
		inert bool // the run must come out unchanged
	}{
		{"NoRefinePrune", Ablations{DisableRefine: true}, false},
		{"NaiveSearch", Ablations{NaiveSearch: true}, false},
		{"NoLHS", Ablations{IndependentSampling: true}, false},
		// The small task reaches coverage inside refinement's phase 1 and
		// never holds more than ten templates, so these two switches cannot
		// change it. refine.TestPhase1OnlyCutsPhase2 and
		// search.TestUniformTemplatesWidensSample show their reach, the
		// root BenchmarkAblationHistory and BenchmarkAblationCloseness
		// their effect.
		{"Phase1Only", Ablations{Phase1Only: true}, true},
		{"UniformTemplates", Ablations{UniformTemplates: true}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			changed := run(t, tc.a) != baseline
			if !tc.inert && !changed {
				t.Fatalf("%s had no effect on the run", tc.a)
			}
			if tc.inert && changed {
				t.Fatalf("%s changed a run it has nothing to act on", tc.a)
			}
		})
	}
}
