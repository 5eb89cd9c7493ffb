// Package analyzer is SQLBarber's catalog-aware static-analysis tier: a
// pluggable pass framework over sqlparser ASTs and the catalog schema that
// catches most template defects *before* the Algorithm 1 loop spends an
// LLM-judge call or a DBMS round-trip on them. SynQL-style rule checking
// (binder, types, aggregates, joins, predicates, placeholder sargability,
// spec conformance) runs in microseconds and produces structured
// Diagnostics whose Fix hints feed the LLM's repair prompts directly.
package analyzer

import (
	"sort"
	"strings"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/spec"
	"sqlbarber/internal/sqlparser"
)

// Pass is one static-analysis rule set. Passes are stateless; all
// per-template state lives in the Context.
type Pass interface {
	// Name identifies the pass in reports and benchmarks.
	Name() string
	// Run analyzes the template and returns its findings.
	Run(ctx *Context) []Diagnostic
}

// Context carries one template analysis: the schema, the parsed statement,
// the optional specification, and the pre-built name-resolution scopes that
// every pass shares.
type Context struct {
	Schema *catalog.Schema
	Stmt   *sqlparser.SelectStmt
	// Spec, when non-nil, enables the specification-conformance pass.
	Spec *spec.Spec
	// SQL is the canonical rendering of Stmt, used to recover spans.
	SQL string

	scopes map[*sqlparser.SelectStmt]*scope
}

// scope is the name-resolution environment of one SELECT level, chained to
// the enclosing query for correlated subqueries. Unlike plan.Bind it is
// tolerant: unknown relations yield a nil Table rather than aborting, so
// later passes can keep analyzing the rest of the statement.
type scope struct {
	stmt   *sqlparser.SelectStmt
	parent *scope
	tables []tableInstance
	// aliases maps lower-cased select-item aliases to their expressions
	// (GROUP BY/ORDER BY may reference output names).
	aliases map[string]sqlparser.Expr
}

type tableInstance struct {
	refName string
	table   *catalog.Table // nil when the relation does not exist
}

// resolveStatus classifies a column-reference lookup.
type resolveStatus uint8

const (
	resolved resolveStatus = iota
	resolvedAlias
	unknownQualifier // qualified ref whose qualifier names no table in scope
	unknownColumn
	ambiguous
	unresolvable // scope contains unknown relations; resolution is moot
)

// resolve looks a column reference up through the scope chain, mirroring
// plan/binder.go's rules (including the output-alias escape hatch).
func (sc *scope) resolve(cr *sqlparser.ColumnRef) (tableInstance, *catalog.Column, resolveStatus) {
	if cr.Table == "" {
		if alias, ok := sc.aliases[strings.ToLower(cr.Name)]; ok {
			if _, isCol := alias.(*sqlparser.ColumnRef); !isCol {
				return tableInstance{}, nil, resolvedAlias
			}
		}
	}
	anyUnknown := false
	for s := sc; s != nil; s = s.parent {
		var found tableInstance
		var foundCol *catalog.Column
		matches := 0
		qualifierSeen := false
		for _, inst := range s.tables {
			if cr.Table != "" && !strings.EqualFold(cr.Table, inst.refName) {
				continue
			}
			if cr.Table != "" {
				qualifierSeen = true
			}
			if inst.table == nil {
				anyUnknown = true
				continue
			}
			col := inst.table.Column(cr.Name)
			if col == nil {
				continue
			}
			found, foundCol = inst, col
			matches++
		}
		if matches > 1 {
			return tableInstance{}, nil, ambiguous
		}
		if matches == 1 {
			return found, foundCol, resolved
		}
		if cr.Table != "" && qualifierSeen {
			if anyUnknown {
				return tableInstance{}, nil, unresolvable
			}
			return tableInstance{}, nil, unknownColumn
		}
	}
	if anyUnknown {
		// An unknown relation may well own this column; stay silent — the
		// binder pass already reported the missing relation.
		return tableInstance{}, nil, unresolvable
	}
	if cr.Table != "" {
		return tableInstance{}, nil, unknownQualifier
	}
	return tableInstance{}, nil, unknownColumn
}

// Analyzer runs a pass pipeline over templates for one schema.
type Analyzer struct {
	schema *catalog.Schema
	passes []Pass
}

// DefaultPasses returns the full built-in pass pipeline in execution order.
func DefaultPasses() []Pass {
	return []Pass{
		BinderPass{},
		TypePass{},
		AggregatePass{},
		JoinPass{},
		PredicatePass{},
		PlaceholderPass{},
		SpecPass{},
	}
}

// New creates an Analyzer with the default pass pipeline.
func New(schema *catalog.Schema) *Analyzer {
	return &Analyzer{schema: schema, passes: DefaultPasses()}
}

// NewWithPasses creates an Analyzer running only the given passes.
func NewWithPasses(schema *catalog.Schema, passes ...Pass) *Analyzer {
	return &Analyzer{schema: schema, passes: passes}
}

// Analyze runs all passes over a parsed statement. sp may be nil to skip
// specification conformance.
func (a *Analyzer) Analyze(stmt *sqlparser.SelectStmt, sp *spec.Spec) Report {
	ctx := &Context{Schema: a.schema, Stmt: stmt, Spec: sp, SQL: stmt.SQL()}
	ctx.buildScopes()
	var rep Report
	for _, p := range a.passes {
		rep.Diagnostics = append(rep.Diagnostics, p.Run(ctx)...)
	}
	rep.Diagnostics = normalizeDiagnostics(rep.Diagnostics)
	return rep
}

// normalizeDiagnostics makes reports order-stable and non-repetitive: sort
// deterministically by (code, span), then drop findings that duplicate an
// earlier one's code and span — several passes can flag the same expression
// for the same reason, and repeated lines only dilute the repair prompt.
// Within a duplicate group the first finding in pass order survives, which
// the stable sort preserves.
func normalizeDiagnostics(diags []Diagnostic) []Diagnostic {
	sort.SliceStable(diags, func(i, j int) bool {
		if diags[i].Code != diags[j].Code {
			return diags[i].Code < diags[j].Code
		}
		if diags[i].Span.Start != diags[j].Span.Start {
			return diags[i].Span.Start < diags[j].Span.Start
		}
		return diags[i].Span.End < diags[j].Span.End
	})
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d.Code == diags[i-1].Code && d.Span == diags[i-1].Span {
			continue
		}
		out = append(out, d)
	}
	return out
}

// AnalyzeSQL parses the template text and analyzes it. A parse failure
// yields a single X001 diagnostic.
func (a *Analyzer) AnalyzeSQL(sql string, sp *spec.Spec) Report {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return Report{Diagnostics: []Diagnostic{{
			Code:     CodeParseError,
			Severity: Error,
			Msg:      err.Error(),
			Fix:      "rewrite the statement as a single well-formed SELECT",
		}}}
	}
	return a.Analyze(stmt, sp)
}

// buildScopes constructs the scope chain for the outer statement and every
// nested subquery.
func (ctx *Context) buildScopes() {
	ctx.scopes = map[*sqlparser.SelectStmt]*scope{}
	var build func(s *sqlparser.SelectStmt, parent *scope)
	build = func(s *sqlparser.SelectStmt, parent *scope) {
		sc := &scope{stmt: s, parent: parent, aliases: map[string]sqlparser.Expr{}}
		add := func(ref sqlparser.TableRef) {
			sc.tables = append(sc.tables, tableInstance{
				refName: ref.Name(),
				table:   ctx.Schema.Table(ref.Table),
			})
		}
		if s.From != nil {
			add(*s.From)
		}
		for _, j := range s.Joins {
			add(j.Table)
		}
		for _, it := range s.Items {
			if it.Alias != "" && it.Expr != nil {
				sc.aliases[strings.ToLower(it.Alias)] = it.Expr
			}
		}
		ctx.scopes[s] = sc
		for _, sub := range s.DirectSubqueries() {
			build(sub, sc)
		}
	}
	build(ctx.Stmt, nil)
}

// EachSelect visits the outer statement and every subquery with its scope,
// outermost first.
func (ctx *Context) EachSelect(fn func(s *sqlparser.SelectStmt, sc *scope)) {
	var visit func(s *sqlparser.SelectStmt)
	visit = func(s *sqlparser.SelectStmt) {
		fn(s, ctx.scopes[s])
		for _, sub := range s.DirectSubqueries() {
			visit(sub)
		}
	}
	visit(ctx.Stmt)
}

// SpanOf recovers the best-effort source span of an expression by locating
// its canonical rendering inside the statement text.
func (ctx *Context) SpanOf(e sqlparser.Expr) Span {
	if e == nil {
		return Span{}
	}
	frag := e.SQL()
	if i := strings.Index(ctx.SQL, frag); i >= 0 {
		return Span{Start: i, End: i + len(frag)}
	}
	return Span{}
}
