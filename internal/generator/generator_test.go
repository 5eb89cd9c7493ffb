package generator

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/spec"
)

func TestGenerateWithPerfectOracle(t *testing.T) {
	db := engine.OpenTPCH(1, 0.05)
	g := New(db, llm.NewSim(llm.Perfect(1)), Options{Seed: 1})
	s := spec.Spec{NumJoins: spec.Int(1), NumPredicates: spec.Int(2)}
	res, err := g.Generate(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid || res.Template == nil {
		t.Fatal("perfect oracle must produce a valid template")
	}
	if len(res.Trace) != 1 || !res.Trace[0].SpecOK || !res.Trace[0].SyntaxOK {
		t.Fatalf("perfect oracle should pass on attempt 0: %+v", res.Trace)
	}
	if ok, viol := s.Check(res.Template.Features()); !ok {
		t.Fatalf("returned template violates spec: %v", viol)
	}
	if len(res.Path.Edges) != 1 {
		t.Fatalf("path has %d edges, want 1", len(res.Path.Edges))
	}
}

func TestGenerateSelfCorrectionConverges(t *testing.T) {
	db := engine.OpenIMDB(13, 0.05)
	// Highly unreliable oracle, but with working self-correction.
	g := New(db, llm.NewSim(llm.SimOptions{Seed: 13}), Options{Seed: 13, MaxRewrites: 8})
	specs := []spec.Spec{
		{NumJoins: spec.Int(0), NumPredicates: spec.Int(2)},
		{NumJoins: spec.Int(1), NumPredicates: spec.Int(1), GroupBy: spec.Bool(true)},
		{NumJoins: spec.Int(1), NumPredicates: spec.Int(2), NestedQuery: spec.Bool(true)},
		{NumJoins: spec.Int(2), NumPredicates: spec.Int(2)},
	}
	valid := 0
	for _, s := range specs {
		res, err := g.Generate(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Valid {
			valid++
			// The final template must really be executable.
			if ok, msg := db.ValidateSyntax(res.Template.SQL()); !ok {
				t.Fatalf("valid result fails DBMS check: %s", msg)
			}
		}
	}
	if valid < 3 {
		t.Fatalf("only %d/4 templates converged with 8 rewrites", valid)
	}
}

func TestGenerateTraceRecordsAttempts(t *testing.T) {
	db := engine.OpenTPCH(3, 0.05)
	g := New(db, llm.NewSim(llm.SimOptions{Seed: 3, SyntaxErrorRate: 0.95, SpecErrorRate: 0.95, FixSuccessRate: 0.5}), Options{Seed: 3})
	res, err := g.Generate(context.Background(), spec.Spec{NumJoins: spec.Int(1), NumPredicates: spec.Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	for i, tr := range res.Trace {
		if tr.Attempt != i {
			t.Fatalf("trace attempt numbering: %+v", res.Trace)
		}
		if tr.Template == "" {
			t.Fatal("trace template missing")
		}
		if !tr.SyntaxOK && tr.DBMSError == "" {
			t.Fatal("failing syntax check must record the DBMS error")
		}
	}
}

func TestGenerateNoJoinPath(t *testing.T) {
	db := engine.OpenTPCH(1, 0.05)
	g := New(db, llm.NewSim(llm.Perfect(1)), Options{Seed: 1})
	_, err := g.Generate(context.Background(), spec.Spec{NumJoins: spec.Int(25)})
	if !errors.Is(err, ErrNoJoinPath) {
		t.Fatalf("want ErrNoJoinPath, got %v", err)
	}
}

func TestGenerateAllSkipsImpossibleSpecs(t *testing.T) {
	db := engine.OpenTPCH(1, 0.05)
	g := New(db, llm.NewSim(llm.Perfect(1)), Options{Seed: 1})
	specs := []spec.Spec{
		{NumJoins: spec.Int(0), NumPredicates: spec.Int(1)},
		{NumJoins: spec.Int(25)}, // impossible
		{NumJoins: spec.Int(1), NumPredicates: spec.Int(1)},
	}
	results, err := g.GenerateAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2 (impossible spec skipped)", len(results))
	}
	ts := ValidResults(results)
	if len(ts) != 2 {
		t.Fatalf("valid templates = %d", len(ts))
	}
	if ts[0].ID == ts[1].ID {
		t.Fatal("templates must receive distinct IDs")
	}
}

func TestSamplePathHonorsTableCount(t *testing.T) {
	db := engine.OpenTPCH(5, 0.05)
	g := New(db, llm.NewSim(llm.Perfect(5)), Options{Seed: 5})
	res, err := g.Generate(context.Background(), spec.Spec{NumTables: spec.Int(3), NumJoins: spec.Int(2), NumPredicates: spec.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Path.Tables) != 3 {
		t.Fatalf("path tables = %v", res.Path.Tables)
	}
}

// TestGenerateAllParallelByteIdentical verifies the deterministic-parallelism
// contract at the generator layer: any worker count produces identical
// results (template text, IDs, traces, validity) and identical stats,
// because every specification owns a stream derived from its index.
func TestGenerateAllParallelByteIdentical(t *testing.T) {
	specs := []spec.Spec{
		{NumJoins: spec.Int(0), NumPredicates: spec.Int(1)},
		{NumJoins: spec.Int(1), NumPredicates: spec.Int(2)},
		{NumJoins: spec.Int(1), NumPredicates: spec.Int(1), GroupBy: spec.Bool(true)},
		{NumJoins: spec.Int(2), NumPredicates: spec.Int(2)},
		{NumJoins: spec.Int(0), NumPredicates: spec.Int(2)},
		{NumJoins: spec.Int(1), NumPredicates: spec.Int(3)},
	}
	run := func(parallel int) ([]string, Stats) {
		db := engine.OpenTPCH(33, 0.05)
		oracle := llm.NewSim(llm.SimOptions{Seed: 33}) // default hallucination rates
		g := New(db, oracle, Options{Seed: 33})
		g.Parallel = parallel
		results, err := g.GenerateAll(context.Background(), specs)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		var sigs []string
		for _, r := range results {
			sig := fmt.Sprintf("valid=%v attempts=%d", r.Valid, len(r.Trace))
			if r.Template != nil {
				sig += fmt.Sprintf(" id=%d sql=%s", r.Template.ID, r.Template.Text)
			}
			sigs = append(sigs, sig)
		}
		return sigs, g.Stats()
	}
	base, baseStats := run(1)
	for _, p := range []int{2, 8} {
		got, gotStats := run(p)
		if len(got) != len(base) {
			t.Fatalf("parallel=%d: %d results, want %d", p, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("parallel=%d result %d differs:\n%s\nvs sequential:\n%s", p, i, got[i], base[i])
			}
		}
		if gotStats != baseStats {
			t.Fatalf("parallel=%d stats differ: %+v vs %+v", p, gotStats, baseStats)
		}
	}
}
