// Package baseline provides the shared machinery of the two comparison
// methods of §6.1 — HillClimbing [3] and LearnedSQLGen [29]: a budgeted
// evaluation environment over template predicate spaces, the order/priority
// interval-scheduling heuristics, and the mutated template library both
// baselines consume.
package baseline

import (
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"strings"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/engine"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/profiler"
	"sqlbarber/internal/sqltemplate"
	"sqlbarber/internal/stats"
	"sqlbarber/internal/workload"
)

// Heuristic selects how a baseline schedules cost intervals.
type Heuristic uint8

// The two scheduling heuristics of §6.1.
const (
	// Order generates queries from the lowest to the highest cost range.
	Order Heuristic = iota
	// Priority generates queries for the range with the largest shortfall.
	Priority
)

// String names the heuristic as in the paper's figures.
func (h Heuristic) String() string {
	if h == Priority {
		return "priority"
	}
	return "order"
}

// Env is the budgeted evaluation environment baselines run in. It tracks
// the DBMS call budget and adds every evaluated query to its pool, which
// owns the generated query set and the current distribution.
type Env struct {
	DB     *engine.DB
	Kind   engine.CostKind
	Target *stats.TargetDistribution
	// Spaces holds one search space per usable template.
	Spaces []*profiler.SearchSpace
	// MaxEvals is the total DBMS evaluation budget (the stand-in for the
	// paper's per-iteration one-hour time budget).
	MaxEvals int
	// Progress, when non-nil, is called every 64 evaluations; the caller
	// reads Pool().
	Progress func()

	ctx   context.Context
	pool  *workload.Pool
	evals int
	// memo maps an evaluated query to its cost under a repeatable Kind
	// (engine.CostKind.Repeatable), so a repeat spends budget but no DBMS
	// call, under the same rule as SQLBarber's search.
	memo map[string]float64
}

// NewEnv prepares an environment, deriving search spaces from the template
// library (templates that fail to bind are skipped). The context is retained
// for the lifetime of the run it scopes: cancellation makes the environment
// report itself exhausted, so baseline loops stop at their next evaluation.
func NewEnv(ctx context.Context, db *engine.DB, kind engine.CostKind, target *stats.TargetDistribution, library []*sqltemplate.Template, maxEvals int) (*Env, error) {
	e := &Env{DB: db, Kind: kind, Target: target, MaxEvals: maxEvals, ctx: ctx, pool: workload.NewPool(target), memo: map[string]float64{}}
	for _, t := range library {
		b, err := t.BindPlaceholders(db.Schema())
		if err != nil || len(b) == 0 {
			continue
		}
		sp, err := profiler.BuildSearchSpace(t, b)
		if err != nil {
			continue
		}
		e.Spaces = append(e.Spaces, sp)
	}
	if len(e.Spaces) == 0 {
		return nil, fmt.Errorf("baseline: no usable templates in library")
	}
	return e, nil
}

// Exhausted reports whether the evaluation budget is spent or the run's
// context has been cancelled.
func (e *Env) Exhausted() bool { return e.evals >= e.MaxEvals || e.ctx.Err() != nil }

// Evals returns the number of DBMS evaluations consumed.
func (e *Env) Evals() int { return e.evals }

// Pool returns the queries generated so far and their distribution.
func (e *Env) Pool() *workload.Pool { return e.pool }

// Deficit returns d*[j] - d[j].
func (e *Env) Deficit(j int) int { return e.Target.Counts[j] - e.pool.Count(j) }

// Eval instantiates template space si at the raw predicate vector and
// evaluates its cost, recording the query. ok is false when the budget is
// exhausted or the query failed. Every call counts against MaxEvals, but a
// query already costed under a repeatable Kind is answered from the memo
// without a DBMS call.
func (e *Env) Eval(si int, raw []float64) (cost float64, ok bool) {
	if e.Exhausted() {
		return 0, false
	}
	sp := e.Spaces[si]
	sql, err := sp.Instantiate(raw)
	if err != nil {
		return 0, false
	}
	e.evals++
	obs.FromContext(e.ctx).Count(obs.MBaselineEvals, 1)
	c, known := e.memo[sql]
	if !known {
		if c, err = e.DB.Cost(e.ctx, sql, e.Kind); err != nil {
			return 0, false
		}
		if e.Kind.Repeatable() {
			e.memo[sql] = c
		}
	}
	e.pool.Add(workload.Query{SQL: sql, Cost: c, TemplateID: sp.Template.ID})
	if e.Progress != nil && e.evals%64 == 0 {
		e.Progress()
	}
	return c, true
}

// Schedule returns the interval order to optimize under the heuristic: a
// fixed pass for Order, or deficit-descending recomputed per call for
// Priority (callers re-invoke between iterations).
func (e *Env) Schedule(h Heuristic) []int {
	n := len(e.Target.Intervals)
	idx := make([]int, 0, n)
	for j := 0; j < n; j++ {
		if e.Deficit(j) > 0 {
			idx = append(idx, j)
		}
	}
	if h == Priority {
		// Selection sort by deficit, stable.
		for i := 0; i < len(idx); i++ {
			best := i
			for k := i + 1; k < len(idx); k++ {
				if e.Deficit(idx[k]) > e.Deficit(idx[best]) {
					best = k
				}
			}
			idx[i], idx[best] = idx[best], idx[i]
		}
	}
	return idx
}

// Objective measures distance of a cost to an interval (Equation 5 shape,
// shared by both baselines for their greedy/reward signals).
func Objective(c float64, iv stats.Interval) float64 { return iv.Dist(c) }

// BuildLibrary expands seed templates into a large mutated library, the way
// §6.1 prepares ~16k HillClimbing inputs: randomly adding or removing
// placeholder predicates and flipping comparison operators.
func BuildLibrary(schema *catalog.Schema, seeds []*sqltemplate.Template, n int, seed int64) []*sqltemplate.Template {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*sqltemplate.Template, 0, n)
	out = append(out, seeds...)
	id := 0
	for _, s := range seeds {
		if s.ID > id {
			id = s.ID
		}
	}
	for len(out) < n {
		base := seeds[rng.Intn(len(seeds))]
		m, err := mutate(schema, base, rng)
		if err != nil {
			continue
		}
		id++
		m.ID = id
		out = append(out, m)
	}
	return out
}

var mutOps = []string{">=", "<=", ">", "<"}

// mutate produces one template variant: add a predicate, drop a predicate,
// or flip an operator.
func mutate(schema *catalog.Schema, t *sqltemplate.Template, rng *rand.Rand) (*sqltemplate.Template, error) {
	text := t.SQL()
	switch rng.Intn(3) {
	case 0: // add a placeholder predicate on a random numeric column
		tbl, alias := randomTableRef(t, rng)
		if tbl == "" {
			return nil, fmt.Errorf("no table")
		}
		ct := schema.Table(tbl)
		if ct == nil {
			return nil, fmt.Errorf("unknown table")
		}
		numeric := ct.NumericColumns()
		if len(numeric) == 0 {
			return nil, fmt.Errorf("no numeric columns")
		}
		col := numeric[rng.Intn(len(numeric))]
		ph := fmt.Sprintf("{p_m%d}", rng.Intn(1_000_000))
		pred := fmt.Sprintf("%s.%s %s %s", alias, col, mutOps[rng.Intn(len(mutOps))], ph)
		text = addPredicate(text, pred)
	case 1: // drop one placeholder predicate
		var err error
		text, err = dropPredicate(text, rng)
		if err != nil {
			return nil, err
		}
	default: // flip a comparison operator adjacent to a placeholder
		text = flipOperator(text, rng)
	}
	return sqltemplate.Parse(text)
}

func randomTableRef(t *sqltemplate.Template, rng *rand.Rand) (table, alias string) {
	type ref struct{ table, alias string }
	var refs []ref
	if t.Stmt.From != nil {
		refs = append(refs, ref{t.Stmt.From.Table, t.Stmt.From.Name()})
	}
	for _, j := range t.Stmt.Joins {
		refs = append(refs, ref{j.Table.Table, j.Table.Name()})
	}
	if len(refs) == 0 {
		return "", ""
	}
	r := refs[rng.Intn(len(refs))]
	return r.table, r.alias
}

// addPredicate splices a conjunct into the outer WHERE clause (before
// GROUP BY / ORDER BY when present).
func addPredicate(text, pred string) string {
	upper := strings.ToUpper(text)
	insertAt := len(text)
	for _, kw := range []string{" GROUP BY ", " ORDER BY ", " LIMIT "} {
		if i := strings.Index(upper, kw); i >= 0 && i < insertAt {
			insertAt = i
		}
	}
	if i := strings.Index(upper, " WHERE "); i >= 0 {
		return text[:insertAt] + " AND " + pred + text[insertAt:]
	}
	return text[:insertAt] + " WHERE " + pred + text[insertAt:]
}

// dropPredicate removes one `AND col op {p}` conjunct.
func dropPredicate(text string, rng *rand.Rand) (string, error) {
	matches := andPredRe.FindAllStringIndex(text, -1)
	if len(matches) == 0 {
		return "", fmt.Errorf("no droppable predicate")
	}
	m := matches[rng.Intn(len(matches))]
	return text[:m[0]] + text[m[1]:], nil
}

var andPredRe = regexp.MustCompile(` AND [A-Za-z_][A-Za-z0-9_]*\.[A-Za-z_][A-Za-z0-9_]* (?:>=|<=|<|>|=) \{[^{}]+\}`)

var flipRe = regexp.MustCompile(`(>=|<=|>|<) \{`)

func flipOperator(text string, rng *rand.Rand) string {
	flips := map[string]string{">=": "<=", "<=": ">=", ">": "<", "<": ">"}
	replaced := false
	return flipRe.ReplaceAllStringFunc(text, func(m string) string {
		if replaced || rng.Intn(2) == 0 {
			return m
		}
		replaced = true
		op := strings.TrimSuffix(m, " {")
		return flips[op] + " {"
	})
}
