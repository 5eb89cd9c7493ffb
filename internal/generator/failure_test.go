package generator

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/spec"
)

// flakyOracle wraps a working oracle but fails every nth call — failure
// injection for the generator's error paths.
type flakyOracle struct {
	inner llm.Oracle
	n     int
	calls int
}

var errFlaky = errors.New("simulated LLM API outage")

func (f *flakyOracle) tick() error {
	f.calls++
	if f.n > 0 && f.calls%f.n == 0 {
		return errFlaky
	}
	return nil
}

func (f *flakyOracle) GenerateTemplate(ctx context.Context, req llm.GenerateRequest) (string, error) {
	if err := f.tick(); err != nil {
		return "", err
	}
	return f.inner.GenerateTemplate(ctx, req)
}

func (f *flakyOracle) ValidateSemantics(ctx context.Context, sql string, s spec.Spec) (bool, []string, error) {
	if err := f.tick(); err != nil {
		return false, nil, err
	}
	return f.inner.ValidateSemantics(ctx, sql, s)
}

func (f *flakyOracle) FixSemantics(ctx context.Context, sql string, s spec.Spec, v []string, req llm.GenerateRequest) (string, error) {
	if err := f.tick(); err != nil {
		return "", err
	}
	return f.inner.FixSemantics(ctx, sql, s, v, req)
}

func (f *flakyOracle) FixExecution(ctx context.Context, sql string, dbmsErr string, req llm.GenerateRequest) (string, error) {
	if err := f.tick(); err != nil {
		return "", err
	}
	return f.inner.FixExecution(ctx, sql, dbmsErr, req)
}

func (f *flakyOracle) RefineTemplate(ctx context.Context, req llm.RefineRequest) (string, error) {
	if err := f.tick(); err != nil {
		return "", err
	}
	return f.inner.RefineTemplate(ctx, req)
}

func TestGeneratorSurfacesOracleErrors(t *testing.T) {
	db := engine.OpenTPCH(1, 0.05)
	oracle := &flakyOracle{inner: llm.NewSim(llm.SimOptions{Seed: 1}), n: 1} // fail immediately
	g := New(db, oracle, Options{Seed: 1})
	_, err := g.Generate(context.Background(), spec.Spec{NumJoins: spec.Int(1), NumPredicates: spec.Int(1)})
	if !errors.Is(err, errFlaky) {
		t.Fatalf("oracle failure must propagate, got %v", err)
	}
	if err != nil && !strings.Contains(err.Error(), "template generation failed") {
		t.Fatalf("error should say which stage failed: %v", err)
	}
}

func TestGeneratorErrorsMidLoop(t *testing.T) {
	db := engine.OpenTPCH(2, 0.05)
	// Fail on a later call so the failure lands inside the rewrite loop.
	for _, n := range []int{2, 3, 4} {
		oracle := &flakyOracle{inner: llm.NewSim(llm.SimOptions{Seed: 2}), n: n}
		g := New(db, oracle, Options{Seed: 2})
		_, err := g.Generate(context.Background(), spec.Spec{NumJoins: spec.Int(1), NumPredicates: spec.Int(2)})
		if err != nil && !errors.Is(err, errFlaky) {
			t.Fatalf("n=%d: unexpected error type: %v", n, err)
		}
	}
}

func TestGenerateAllStopsOnOracleError(t *testing.T) {
	db := engine.OpenTPCH(3, 0.05)
	oracle := &flakyOracle{inner: llm.NewSim(llm.Perfect(3)), n: 5}
	g := New(db, oracle, Options{Seed: 3})
	var specs []spec.Spec
	for i := 0; i < 10; i++ {
		specs = append(specs, spec.Spec{NumJoins: spec.Int(0), NumPredicates: spec.Int(1)})
	}
	results, err := g.GenerateAll(context.Background(), specs)
	if err == nil {
		t.Fatal("GenerateAll must stop on oracle errors")
	}
	// Partial results up to the failure are returned.
	if len(results) == 0 {
		t.Fatal("partial results lost")
	}
	_ = fmt.Sprintf("%v", results)
}

func TestTranscriptRecordsCalls(t *testing.T) {
	db := engine.OpenTPCH(4, 0.05)
	sim := llm.NewSim(llm.Perfect(4))
	var sb strings.Builder
	sim.SetTranscript(&sb)
	g := New(db, sim, Options{Seed: 4})
	if _, err := g.Generate(context.Background(), spec.Spec{NumJoins: spec.Int(1), NumPredicates: spec.Int(1)}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "=== call 1 ===") || !strings.Contains(out, "--- prompt ---") {
		t.Fatalf("transcript missing structure:\n%.200s", out)
	}
	if !strings.Contains(out, "schema summary") {
		t.Fatal("transcript should contain the generation prompt")
	}
}

// forkFailOracle forks a SimLLM per specification, except that the fork for
// stream failAt fails its first call. The failing specification is fixed by
// its position, not by call timing, so every worker count must see the same
// failure. A fork for a later stream waits until that failure has happened,
// so a worker that took it asks for its next specification only after the
// failure. forks records the streams forked, in fork order.
type forkFailOracle struct {
	*llm.SimLLM
	failAt int64
	failed chan struct{}
	mu     sync.Mutex
	forks  []int64
}

func (o *forkFailOracle) Fork(stream int64) llm.Oracle {
	o.mu.Lock()
	o.forks = append(o.forks, stream)
	o.mu.Unlock()
	child := o.SimLLM.Fork(stream)
	switch {
	case stream == o.failAt:
		return &failFirstOracle{Oracle: child, failed: o.failed}
	case stream > o.failAt:
		<-o.failed
	}
	return child
}

// failFirstOracle fails template generation and closes failed.
type failFirstOracle struct {
	llm.Oracle
	failed chan struct{}
}

func (f *failFirstOracle) GenerateTemplate(context.Context, llm.GenerateRequest) (string, error) {
	close(f.failed)
	return "", errFlaky
}

// TestGenerateAllParallelSameFailure checks that a hard failure at
// specification k gives the same results, error and merged Stats at every
// worker count, and that no worker asks the oracle for a specification past
// k once k has failed: only the forks already taken beside k may lie past it.
func TestGenerateAllParallelSameFailure(t *testing.T) {
	const k = 3
	var specs []spec.Spec
	for i := 0; i < 10; i++ {
		specs = append(specs, spec.Spec{NumJoins: spec.Int(i % 2), NumPredicates: spec.Int(1 + i%3)})
	}
	run := func(parallel int) (string, error, Stats) {
		db := engine.OpenTPCH(9, 0.05)
		oracle := &forkFailOracle{SimLLM: llm.NewSim(llm.SimOptions{Seed: 9}), failAt: k, failed: make(chan struct{})}
		g := New(db, oracle, Options{Seed: 9})
		g.Parallel = parallel
		results, err := g.GenerateAll(context.Background(), specs)
		var sb strings.Builder
		for _, r := range results {
			fmt.Fprintf(&sb, "valid=%v attempts=%d id=%d sql=%s\n", r.Valid, len(r.Trace), r.Template.ID, r.Template.Text)
		}
		past := 0
		for _, s := range oracle.forks {
			if s > k {
				past++
			}
		}
		if past > parallel-1 {
			t.Errorf("parallel=%d forked %d streams past the failing one (%v), want at most %d", parallel, past, oracle.forks, parallel-1)
		}
		return sb.String(), err, g.Stats()
	}
	base, baseErr, baseStats := run(1)
	if !errors.Is(baseErr, errFlaky) {
		t.Fatalf("parallel=1: err = %v, want the injected failure", baseErr)
	}
	if strings.Count(base, "\n") != k {
		t.Fatalf("parallel=1 kept %d results, want the %d before the failure:\n%s", strings.Count(base, "\n"), k, base)
	}
	for _, p := range []int{2, 8} {
		got, err, st := run(p)
		if got != base {
			t.Fatalf("parallel=%d results differ:\n%s\nvs parallel=1:\n%s", p, got, base)
		}
		if fmt.Sprint(err) != fmt.Sprint(baseErr) {
			t.Fatalf("parallel=%d err = %v, want %v", p, err, baseErr)
		}
		if st != baseStats {
			t.Fatalf("parallel=%d stats %+v, want %+v", p, st, baseStats)
		}
	}
}
