// Package generator implements §4, the Customized SQL Template Generator:
// database schema summarization, join path generation, prompt construction,
// LLM template generation, and the iterative template check-and-rewrite loop
// of Algorithm 1 — fronted by a static-analysis tier (internal/analyzer)
// that catches most template defects without spending an LLM-judge call or a
// DBMS round-trip.
package generator

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"

	"sqlbarber/internal/analyzer"
	"sqlbarber/internal/catalog"
	"sqlbarber/internal/engine"
	"sqlbarber/internal/fanout"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/prand"
	"sqlbarber/internal/spec"
	"sqlbarber/internal/sqltemplate"
)

// maxPathCandidates caps join-path enumeration per join count.
const maxPathCandidates = 64

// Options configures the generator.
type Options struct {
	// MaxRewrites is Algorithm 1's k: the maximum check-and-rewrite
	// iterations per template (default 8; convergence typically happens by
	// attempt 3-4, the slack covers unlucky repair draws). A template is
	// checked at attempts 0..k — attempt 0 validates the initial generation,
	// attempts 1..k validate rewrites — so at most k repair calls are spent
	// per oracle kind and every repair output is validated before the budget
	// ends (no trailing unvalidated fix call).
	MaxRewrites int
	// Seed drives join-path sampling.
	Seed int64
	// DisableStaticAnalysis turns off the analyzer tier, restoring the
	// original judge-then-DBMS flow. Benchmarks use it to measure how many
	// LLM and DBMS calls static analysis saves.
	DisableStaticAnalysis bool
}

func (o Options) withDefaults() Options {
	if o.MaxRewrites <= 0 {
		o.MaxRewrites = 8
	}
	return o
}

// AttemptTrace records the validation state after each rewrite attempt,
// feeding the Figure 8a rewrite-analysis experiment.
type AttemptTrace struct {
	// Attempt 0 is the initial generation; attempts 1..k are rewrites.
	Attempt   int
	SpecOK    bool
	SyntaxOK  bool
	Template  string
	DBMSError string
	// Codes is the structured defect-code summary of this attempt: static
	// analyzer codes plus the normalized codes of any judge violations and
	// DBMS errors (see analyzer.FromViolations / analyzer.FromDBMSError).
	Codes []string
	// Diagnostics holds the full static-analysis findings for the attempt.
	Diagnostics []analyzer.Diagnostic
	// StaticSpec marks that the spec verdict came from the static analyzer
	// (the LLM-judge call was skipped); StaticExec likewise for the DBMS
	// executability check.
	StaticSpec bool
	StaticExec bool
}

// Stats counts the validation work one Generator has performed, separating
// the expensive tiers (LLM judge, DBMS) from the free static tier so the
// analyzer's savings are directly measurable.
type Stats struct {
	// Attempts is the total number of check iterations across templates.
	Attempts int
	// JudgeCalls counts oracle.ValidateSemantics invocations (LLM).
	JudgeCalls int
	// SyntaxChecks counts db.ValidateSyntax invocations (DBMS).
	SyntaxChecks int
	// FixSemanticsCalls / FixExecutionCalls count LLM repair invocations.
	FixSemanticsCalls int
	FixExecutionCalls int
	// StaticSpecCatches counts attempts whose spec violations were proven
	// statically, short-circuiting the judge call.
	StaticSpecCatches int
	// StaticExecCatches counts attempts whose executability defects were
	// proven statically, short-circuiting the DBMS check.
	StaticExecCatches int
}

// Result is one generated template with its provenance.
type Result struct {
	Template *sqltemplate.Template
	Spec     spec.Spec
	Path     catalog.JoinPath
	Trace    []AttemptTrace
	// Valid reports whether the final template passed both checks within
	// the rewrite budget.
	Valid bool
}

// Generator creates customized SQL templates for one target database.
type Generator struct {
	db       *engine.DB
	oracle   llm.Oracle
	opts     Options
	rng      *rand.Rand
	analyzer *analyzer.Analyzer
	stats    Stats
	// Parallel is the number of goroutines GenerateAll fans specifications
	// across; zero or one runs them on the caller's goroutine. Results are
	// byte-identical for any value: every specification owns a random stream
	// and an oracle fork derived from its index, and results merge in
	// specification order.
	Parallel int
}

// New creates a Generator.
func New(db *engine.DB, oracle llm.Oracle, opts Options) *Generator {
	o := opts.withDefaults()
	return &Generator{
		db:       db,
		oracle:   oracle,
		opts:     o,
		rng:      rand.New(rand.NewSource(o.Seed)),
		analyzer: analyzer.New(db.Schema()),
	}
}

// Stats returns a copy of the generator's validation counters.
func (g *Generator) Stats() Stats { return g.stats }

// ResetStats zeroes the validation counters.
func (g *Generator) ResetStats() { g.stats = Stats{} }

// ErrNoJoinPath indicates the schema has no join path with the requested
// number of joins.
var ErrNoJoinPath = errors.New("generator: no join path satisfies the requested join count")

// samplePath picks a random join path honouring the spec's join count
// (§4 Step 2). Randomness diversifies join patterns across attempts and
// keeps each prompt small (only the sampled tables are summarized).
func (g *Generator) samplePath(rng *rand.Rand, s spec.Spec) (catalog.JoinPath, error) {
	numJoins := 0
	switch {
	case s.NumJoins != nil:
		numJoins = *s.NumJoins
	case s.NumTables != nil:
		numJoins = *s.NumTables - 1
	default:
		numJoins = rng.Intn(3)
	}
	if numJoins < 0 {
		numJoins = 0
	}
	paths := g.db.Schema().JoinPaths(numJoins, maxPathCandidates)
	// Honour an explicit table count that differs from joins+1 by preferring
	// paths whose distinct-table count matches (self-join-free schemas make
	// this equal to joins+1, so usually every path qualifies).
	if s.NumTables != nil {
		var filtered []catalog.JoinPath
		for _, p := range paths {
			if len(p.Tables) == *s.NumTables {
				filtered = append(filtered, p)
			}
		}
		if len(filtered) > 0 {
			paths = filtered
		}
	}
	if len(paths) == 0 {
		return catalog.JoinPath{}, fmt.Errorf("%w: %d joins", ErrNoJoinPath, numJoins)
	}
	return paths[rng.Intn(len(paths))], nil
}

// mergeCodes unions sorted code lists, preserving first-seen order.
func mergeCodes(base []string, extra ...string) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range append(append([]string(nil), base...), extra...) {
		if c != "" && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// Generate runs the full §4 workflow for one specification: sample a join
// path, prompt the LLM, then check and rewrite per Algorithm 1 with the
// static-analysis tier in front of the expensive checks. It uses the
// generator's own random stream and oracle; parallel fan-out goes through
// GenerateAll, which derives per-specification streams instead.
func (g *Generator) Generate(ctx context.Context, s spec.Spec) (*Result, error) {
	return g.generateOne(ctx, s, g.rng, g.oracle, &g.stats)
}

// generateOne is the Algorithm 1 loop parameterized by the random stream,
// oracle, and stat sink of one task, so parallel tasks never share mutable
// state.
func (g *Generator) generateOne(ctx context.Context, s spec.Spec, rng *rand.Rand, oracle llm.Oracle, stats *Stats) (*Result, error) {
	ctx, gsp := obs.StartSpan(ctx, "generate", obs.A("spec", s.Describe()))
	defer gsp.End()
	path, err := g.samplePath(rng, s)
	if err != nil {
		return nil, err
	}
	req := llm.GenerateRequest{Schema: g.db.Schema(), JoinPath: path, Spec: s}
	sql, err := oracle.GenerateTemplate(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("generator: template generation failed: %w", err)
	}
	res := &Result{Spec: s, Path: path}
	useStatic := !g.opts.DisableStaticAnalysis
	// Algorithm 1: iterative template check and rewrite. Attempt 0 checks
	// the initial generation; attempts 1..MaxRewrites check rewrites. Repair
	// calls are skipped on the final attempt — their output could never be
	// validated, so issuing them would waste LLM budget (the pre-analyzer
	// implementation had exactly that off-by-one).
	for attempt := 0; attempt <= g.opts.MaxRewrites; attempt++ {
		stats.Attempts++
		gsp.Count(obs.MGenAttempts, 1)
		asp := gsp.StartSpan("attempt", obs.A("n", strconv.Itoa(attempt)))
		lastAttempt := attempt == g.opts.MaxRewrites
		trace := AttemptTrace{Attempt: attempt, Template: sql}

		// Phase 0: static analysis (no LLM, no DBMS).
		var rep analyzer.Report
		if useStatic {
			rep = g.analyzer.AnalyzeSQL(sql, &s)
			trace.Diagnostics = rep.Diagnostics
			trace.Codes = rep.Codes()
		}
		specDiags := rep.SpecErrors()
		execDiags := rep.ExecErrors()
		parseBroken := len(execDiags) > 0 && execDiags[0].Code == analyzer.CodeParseError

		// Phase 1: specification compliance. Statically proven violations
		// short-circuit the LLM judge; an unparseable template cannot satisfy
		// any structural spec, so it also skips the judge.
		var satisfied bool
		var violations []string
		switch {
		case useStatic && len(specDiags) > 0:
			satisfied = false
			violations = analyzer.Hints(specDiags)
			trace.StaticSpec = true
			stats.StaticSpecCatches++
			gsp.Count(obs.MStaticSpecCatches, 1)
		case useStatic && parseBroken:
			satisfied = false
			violations = []string{"template is not valid SQL: " + execDiags[0].Msg}
			trace.StaticSpec = true
			stats.StaticSpecCatches++
			gsp.Count(obs.MStaticSpecCatches, 1)
		default:
			satisfied, violations, err = oracle.ValidateSemantics(ctx, sql, s)
			if err != nil {
				asp.End()
				return nil, fmt.Errorf("generator: semantic validation failed: %w", err)
			}
			stats.JudgeCalls++
			if !satisfied {
				for _, d := range analyzer.FromViolations(violations) {
					trace.Codes = mergeCodes(trace.Codes, string(d.Code))
				}
			}
		}
		trace.SpecOK = satisfied
		fixed := sql
		// Repair spec violations, except when the template is unparseable —
		// FixExecution is the right repair there, and issuing both would
		// double-spend. Also skip on the final attempt (nothing validates it).
		if !satisfied && !lastAttempt && !(useStatic && parseBroken) {
			fixed, err = oracle.FixSemantics(ctx, sql, s, violations, req)
			if err != nil {
				asp.End()
				return nil, fmt.Errorf("generator: semantic fix failed: %w", err)
			}
			stats.FixSemanticsCalls++
		}

		// Phase 2: database executability. Statically proven binder/type/
		// placeholder defects short-circuit the DBMS check.
		var executable bool
		var dbmsErr string
		if useStatic && len(execDiags) > 0 {
			executable = false
			dbmsErr = execDiags[0].Msg
			if fix := execDiags[0].Fix; fix != "" {
				dbmsErr += " (fix: " + fix + ")"
			}
			trace.StaticExec = true
			stats.StaticExecCatches++
			gsp.Count(obs.MStaticExecCatches, 1)
		} else {
			executable, dbmsErr = g.db.ValidateSyntax(sql)
			stats.SyntaxChecks++
			if !executable {
				trace.Codes = mergeCodes(trace.Codes, string(analyzer.FromDBMSError(dbmsErr).Code))
			}
		}
		trace.SyntaxOK = executable
		trace.DBMSError = dbmsErr
		if !executable && !lastAttempt {
			fixed2, err := oracle.FixExecution(ctx, fixed, dbmsErr, req)
			if err != nil {
				asp.End()
				return nil, fmt.Errorf("generator: execution fix failed: %w", err)
			}
			stats.FixExecutionCalls++
			fixed = fixed2
		}

		res.Trace = append(res.Trace, trace)
		asp.Annotate(
			obs.A("codes", obs.JoinCodes(trace.Codes)),
			obs.A("spec_ok", strconv.FormatBool(trace.SpecOK)),
			obs.A("syntax_ok", strconv.FormatBool(trace.SyntaxOK)))
		asp.End()
		if satisfied && executable {
			t, perr := sqltemplate.Parse(sql)
			if perr != nil {
				// The LLM judge approved an unparseable template; treat as a
				// failed attempt and continue rewriting. (Unreachable with the
				// static tier on: parse failures are caught in phase 0.)
				sql = fixed
				continue
			}
			res.Template = t
			res.Valid = true
			gsp.Observe(obs.HGenAttempts, float64(len(res.Trace)))
			gsp.Annotate(obs.A("valid", "true"))
			return res, nil
		}
		sql = fixed
	}
	// Budget exhausted: return the last candidate (marked invalid) so the
	// caller can decide to drop or retry it.
	if t, perr := sqltemplate.Parse(sql); perr == nil {
		res.Template = t
	}
	gsp.Observe(obs.HGenAttempts, float64(len(res.Trace)))
	gsp.Annotate(obs.A("valid", "false"))
	return res, nil
}

// GenerateAll generates one template per specification, skipping
// specifications that cannot be satisfied (no join path) and templates that
// stayed invalid after the rewrite budget.
//
// Specifications fan out across Parallel workers, and the output is
// byte-identical for every worker count: specification i always draws from
// the random stream Mix(Seed, StageGenerate, i) and from an oracle fork with
// stream i, results merge in specification order, and on error the merged
// prefix matches what a sequential run would have produced before stopping.
func (g *Generator) GenerateAll(ctx context.Context, specs []spec.Spec) ([]*Result, error) {
	results := make([]*Result, len(specs))
	errs := make([]error, len(specs))
	taskStats := make([]Stats, len(specs))

	oracleFor := func(i int) llm.Oracle {
		if f, ok := g.oracle.(llm.Forkable); ok {
			return f.Fork(int64(i))
		}
		return g.oracle
	}
	// A hard failure stops the hand-out of further specifications at any
	// worker count; ErrNoJoinPath only skips its own specification. Every
	// specification below the first failure has run, so the merge below
	// reads the errors itself.
	_ = fanout.Run(g.Parallel, len(specs), func(_, i int) error {
		rng := prand.New(g.opts.Seed, prand.StageGenerate, int64(i))
		results[i], errs[i] = g.generateOne(ctx, specs[i], rng, oracleFor(i), &taskStats[i])
		if errors.Is(errs[i], ErrNoJoinPath) {
			return nil
		}
		return errs[i]
	})

	// Ordered merge: identical at every worker count, whichever goroutine
	// finished first.
	var out []*Result
	var firstErr error
	for i := range specs {
		ts := taskStats[i]
		g.stats.Attempts += ts.Attempts
		g.stats.JudgeCalls += ts.JudgeCalls
		g.stats.SyntaxChecks += ts.SyntaxChecks
		g.stats.FixSemanticsCalls += ts.FixSemanticsCalls
		g.stats.FixExecutionCalls += ts.FixExecutionCalls
		g.stats.StaticSpecCatches += ts.StaticSpecCatches
		g.stats.StaticExecCatches += ts.StaticExecCatches
		if errs[i] != nil {
			if errors.Is(errs[i], ErrNoJoinPath) {
				continue
			}
			firstErr = errs[i]
			break
		}
		if results[i].Template != nil {
			results[i].Template.ID = i + 1
		}
		out = append(out, results[i])
	}
	return out, firstErr
}

// ValidResults filters results to templates that passed both checks.
func ValidResults(results []*Result) []*sqltemplate.Template {
	var out []*sqltemplate.Template
	for _, r := range results {
		if r.Valid && r.Template != nil {
			out = append(out, r.Template)
		}
	}
	return out
}
