package llm

import (
	"context"

	"sqlbarber/internal/obs"
	"sqlbarber/internal/spec"
)

// CallKind identifies which Oracle method a Call represents.
type CallKind uint8

const (
	// CallGenerate is Oracle.GenerateTemplate.
	CallGenerate CallKind = iota + 1
	// CallValidate is Oracle.ValidateSemantics.
	CallValidate
	// CallFixSemantics is Oracle.FixSemantics.
	CallFixSemantics
	// CallFixExecution is Oracle.FixExecution.
	CallFixExecution
	// CallRefine is Oracle.RefineTemplate.
	CallRefine
)

// String returns a stable short name used in fingerprints and cache keys —
// changing these invalidates every persisted prompt-cache entry.
func (k CallKind) String() string {
	switch k {
	case CallGenerate:
		return "generate"
	case CallValidate:
		return "validate"
	case CallFixSemantics:
		return "fix-semantics"
	case CallFixExecution:
		return "fix-execution"
	case CallRefine:
		return "refine"
	}
	return "unknown"
}

// Call is the uniform representation of one Oracle invocation that resilience
// middleware operates on. Exactly the fields relevant to Kind are populated;
// the rest stay zero.
type Call struct {
	Kind CallKind
	// Gen carries the generation context for CallGenerate, CallFixSemantics
	// and CallFixExecution.
	Gen GenerateRequest
	// TemplateSQL is the template under judgment or repair (CallValidate,
	// CallFixSemantics, CallFixExecution).
	TemplateSQL string
	// Spec is the specification being judged against (CallValidate,
	// CallFixSemantics).
	Spec spec.Spec
	// Violations are the judge findings being repaired (CallFixSemantics).
	Violations []string
	// DBMSError is the execution error being repaired (CallFixExecution).
	DBMSError string
	// Refine carries the refinement context for CallRefine.
	Refine RefineRequest

	// fp is the call's content fingerprint, computed once by Chained before
	// the handler chain runs so every layer keys on the same rendering.
	fp string
}

// Prompt renders the canonical prompt text for this call — the same text an
// HTTP deployment sends to the model, and therefore the deterministic content
// that cache keys and fault schedules are derived from.
func (c *Call) Prompt() string {
	switch c.Kind {
	case CallGenerate:
		return buildGeneratePrompt(c.Gen)
	case CallValidate:
		return buildValidatePrompt(c.TemplateSQL, c.Spec.Describe())
	case CallFixSemantics:
		return buildFixSemanticsPrompt(c.TemplateSQL, c.Spec.Describe(), c.Violations)
	case CallFixExecution:
		return buildFixExecutionPrompt(c.TemplateSQL, c.DBMSError)
	case CallRefine:
		return buildRefinePrompt(c.Refine)
	}
	return ""
}

// Fingerprint returns the call's content identity: the kind name and the
// rendered prompt, NUL-separated. Two calls with equal fingerprints are the
// same logical request regardless of which goroutine, attempt or run issues
// them — the property the prompt cache and the fault injector key on.
func (c *Call) Fingerprint() string {
	if c.fp == "" {
		c.fp = c.Kind.String() + "\x00" + c.Prompt()
	}
	return c.fp
}

// Reply is the uniform result of one Call. Text carries SQL for the four
// text-producing kinds; Satisfied/Violations carry the judge verdict for
// CallValidate.
type Reply struct {
	Text       string   `json:"text,omitempty"`
	Satisfied  bool     `json:"satisfied,omitempty"`
	Violations []string `json:"violations,omitempty"`
}

// Handler executes one oracle call. Middleware wraps handlers.
type Handler func(ctx context.Context, c *Call) (Reply, error)

// Middleware is one composable layer around a Handler. Implementations are
// stateful objects (counters, a prompt cache) so a forked chain can re-wrap
// the same instances and keep shared state across parallel tasks.
type Middleware interface {
	Wrap(next Handler) Handler
}

// ObsBinder is implemented by middleware whose counters an observability
// collector should adopt by reference (the PR 3 anti-drift pattern).
type ObsBinder interface {
	BindObs(b obs.Binder)
}

// Dispatch returns the terminal Handler that maps a Call back onto the
// underlying Oracle's methods.
func Dispatch(o Oracle) Handler {
	return func(ctx context.Context, c *Call) (Reply, error) {
		switch c.Kind {
		case CallGenerate:
			sql, err := o.GenerateTemplate(ctx, c.Gen)
			return Reply{Text: sql}, err
		case CallValidate:
			ok, violations, err := o.ValidateSemantics(ctx, c.TemplateSQL, c.Spec)
			return Reply{Satisfied: ok, Violations: violations}, err
		case CallFixSemantics:
			sql, err := o.FixSemantics(ctx, c.TemplateSQL, c.Spec, c.Violations, c.Gen)
			return Reply{Text: sql}, err
		case CallFixExecution:
			sql, err := o.FixExecution(ctx, c.TemplateSQL, c.DBMSError, c.Gen)
			return Reply{Text: sql}, err
		case CallRefine:
			sql, err := o.RefineTemplate(ctx, c.Refine)
			return Reply{Text: sql}, err
		}
		return Reply{}, errUnknownCallKind
	}
}

var errUnknownCallKind = errorString("llm: unknown call kind")

// errorString is a tiny allocation-free error type for package sentinels.
type errorString string

func (e errorString) Error() string { return string(e) }

// Chained is an Oracle assembled by Chain: a middleware stack over a base
// oracle. It forwards Forkable and Metered to the base so chained oracles
// drop into the pipeline's deterministic-parallelism and metering machinery
// unchanged.
type Chained struct {
	base    Oracle
	mws     []Middleware
	handler Handler
	// fallback meters calls when the base oracle is not itself Metered.
	fallback Ledger
}

var (
	_ Oracle   = (*Chained)(nil)
	_ Forkable = (*Chained)(nil)
	_ Metered  = (*Chained)(nil)
)

// Chain wraps base in the given middleware. mw[0] is the OUTERMOST layer:
// Chain(base, a, b, c) runs a → b → c → base. The canonical production order
// is Latency → Cache → Retry (→ Faults in tests and benchmarks): cache hits
// skip retry accounting, and every retry attempt re-enters the fault
// schedule with its own attempt index.
func Chain(base Oracle, mw ...Middleware) *Chained {
	c := &Chained{base: base, mws: mw}
	c.handler = buildHandler(base, mw)
	return c
}

func buildHandler(base Oracle, mws []Middleware) Handler {
	h := Dispatch(base)
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i].Wrap(h)
	}
	return h
}

// do computes the fingerprint eagerly (so the cache key, the retry jitter
// and the fault schedule all derive from one rendering of the prompt, and
// no layer mutates the Call) and runs the middleware stack.
func (o *Chained) do(ctx context.Context, c Call) (Reply, error) {
	c.fp = c.Kind.String() + "\x00" + c.Prompt()
	return o.handler(ctx, &c)
}

// Unwrap returns the base oracle beneath the middleware stack.
func (o *Chained) Unwrap() Oracle { return o.base }

// Fork derives a child chain for one parallel task: the base oracle is
// forked (if it supports it) and re-wrapped in the SAME middleware instances,
// so retries/faults/cache state and counters are shared across tasks while
// the base's random stream stays task-private.
func (o *Chained) Fork(stream int64) Oracle {
	f, ok := o.base.(Forkable)
	if !ok {
		return o
	}
	child := &Chained{base: f.Fork(stream), mws: o.mws}
	child.handler = buildHandler(child.base, o.mws)
	return child
}

// Ledger returns the base oracle's ledger when it is Metered, so paid-call
// totals always reflect what the base actually served (cache hits are
// metered separately by the cache middleware). Unmetered bases get a private
// zero ledger.
func (o *Chained) Ledger() *Ledger {
	if m, ok := o.base.(Metered); ok {
		return m.Ledger()
	}
	return &o.fallback
}

// BindObs binds every middleware that exposes counters into the collector.
// The base oracle's ledger is bound separately by the pipeline through
// Metered, exactly as for unchained oracles.
func (o *Chained) BindObs(b obs.Binder) {
	for _, mw := range o.mws {
		if ob, ok := mw.(ObsBinder); ok {
			ob.BindObs(b)
		}
	}
}

// GenerateTemplate implements Oracle through the middleware stack.
func (o *Chained) GenerateTemplate(ctx context.Context, req GenerateRequest) (string, error) {
	rep, err := o.do(ctx, Call{Kind: CallGenerate, Gen: req})
	return rep.Text, err
}

// ValidateSemantics implements Oracle through the middleware stack.
func (o *Chained) ValidateSemantics(ctx context.Context, templateSQL string, s spec.Spec) (bool, []string, error) {
	rep, err := o.do(ctx, Call{Kind: CallValidate, TemplateSQL: templateSQL, Spec: s})
	return rep.Satisfied, rep.Violations, err
}

// FixSemantics implements Oracle through the middleware stack.
func (o *Chained) FixSemantics(ctx context.Context, templateSQL string, s spec.Spec, violations []string, req GenerateRequest) (string, error) {
	rep, err := o.do(ctx, Call{Kind: CallFixSemantics, TemplateSQL: templateSQL, Spec: s, Violations: violations, Gen: req})
	return rep.Text, err
}

// FixExecution implements Oracle through the middleware stack.
func (o *Chained) FixExecution(ctx context.Context, templateSQL string, dbmsError string, req GenerateRequest) (string, error) {
	rep, err := o.do(ctx, Call{Kind: CallFixExecution, TemplateSQL: templateSQL, DBMSError: dbmsError, Gen: req})
	return rep.Text, err
}

// RefineTemplate implements Oracle through the middleware stack.
func (o *Chained) RefineTemplate(ctx context.Context, req RefineRequest) (string, error) {
	rep, err := o.do(ctx, Call{Kind: CallRefine, Refine: req})
	return rep.Text, err
}
