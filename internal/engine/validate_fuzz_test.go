package engine_test

import (
	"context"
	"strings"
	"testing"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/generator"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/realworld"
)

// FuzzValidateAgreesWithPrepare checks that a template is valid exactly when
// it is preparable: ValidateSyntax succeeds iff Prepare does, and a failure's
// message is Prepare's error without its "engine: prepare: " wrapper. Every
// input is checked against both the TPC-H and the IMDB schema. The corpus is
// every attempt of a hallucinating SimLLM generation run over the Redset
// specifications on each dataset, so it holds both the valid templates and
// the broken drafts the rewrite loop repairs.
func FuzzValidateAgreesWithPrepare(f *testing.F) {
	dbs := []*engine.DB{engine.OpenTPCH(1, 0.01), engine.OpenIMDB(1, 0.01)}
	for _, db := range dbs {
		g := generator.New(db, llm.NewSim(llm.SimOptions{Seed: 1}), generator.Options{Seed: 1})
		results, err := g.GenerateAll(context.Background(), realworld.RedsetSpecs(1))
		if err != nil {
			f.Fatal(err)
		}
		for _, r := range results {
			for _, a := range r.Trace {
				f.Add(a.Template)
			}
		}
	}
	f.Add("SELECT COUNT(*) FROM orders WHERE o_comment = '{not_a_slot}' AND o_totalprice > {p_1}")
	f.Add("SELECT no_such_column FROM orders WHERE o_orderkey < {p_1}")
	f.Fuzz(func(t *testing.T, sql string) {
		for _, db := range dbs {
			ok, msg := db.ValidateSyntax(sql)
			_, err := db.Prepare(sql)
			if ok != (err == nil) {
				t.Fatalf("ValidateSyntax = %v (%q) but Prepare error = %v for %q", ok, msg, err, sql)
			}
			if err == nil {
				continue
			}
			if want := strings.TrimPrefix(err.Error(), "engine: prepare: "); msg != want {
				t.Fatalf("ValidateSyntax message %q, Prepare says %q, for %q", msg, want, sql)
			}
		}
	})
}
