// Package obs is SQLBarber's zero-dependency runtime-observability
// substrate. Every layer of the pipeline — stages, the §4 generator, the
// §5.1 profiler, the §5.2/§5.3 refine and search loops, the engine, and both
// llm.Oracle implementations — reports through one small Sink interface
// threaded via context, so a single run can be examined as
//
//   - a hierarchical span trace (run → stage → task → attempt) with
//     wall-clock timings and diagnostic attributes, exportable as JSONL;
//   - a deterministic metric snapshot (typed counters, gauges, and
//     histograms), exportable in Prometheus text format;
//   - a human-readable RunReport (cmd/sqlbarber -report, cmd/benchmarks).
//
// Determinism contract: observation is pure. Attaching any sink never
// changes the generated workload — output stays byte-identical with obs on
// or off and at any -parallel level. Trace event *ordering* may vary across
// workers (events append as they happen), but the folded metric snapshot is
// deterministic: counters and histogram buckets are integer-valued
// observations of scheduling-independent quantities, so their totals commute
// (the same ordered-merge reasoning as internal/prand). The only exceptions
// are metrics bound as volatile — shared-cache hits/misses genuinely depend
// on goroutine interleaving — which Snapshot.Stable() excludes.
package obs

import (
	"context"
	"strings"
	"sync/atomic"
	"time"
)

// Canonical metric names. Counters are registered/bound under these names
// and exported with a "sqlbarber_" prefix (counters additionally get the
// Prometheus "_total" suffix).
const (
	// LLM budget (bound from llm.Ledger: lifetime totals of the oracle).
	MLLMOracleCalls      = "llm_oracle_calls"
	MLLMPromptTokens     = "llm_prompt_tokens"
	MLLMCompletionTokens = "llm_completion_tokens"
	// LLM calls by kind (incremented inside both Oracle implementations).
	MLLMGenerateCalls     = "llm_generate_calls"
	MLLMJudgeCalls        = "llm_judge_calls"
	MLLMFixSemanticsCalls = "llm_fix_semantics_calls"
	MLLMFixExecutionCalls = "llm_fix_execution_calls"
	MLLMRefineCalls       = "llm_refine_calls"
	// LLM resilience middleware (internal/llm/resilience). Retry and
	// fault-injection counts are pure functions of call content and a seed,
	// so they are stable across worker counts; cache activity depends on
	// cross-run persistent state, so it binds volatile.
	MLLMRetries         = "llm_retries"
	MLLMFaultsInjected  = "llm_faults_injected"
	MLLMCacheHits       = "llm_cache_hits"
	MLLMCacheMisses     = "llm_cache_misses"
	MLLMCacheWriteFails = "llm_cache_write_fails"

	// DBMS budget (bound from engine.DB: lifetime totals of the database).
	MDBExplainCalls  = "db_explain_calls"
	MDBExecCalls     = "db_exec_calls"
	MDBValidateCalls = "db_validate_calls"
	// Compiled-template probe traffic (deterministic: probe schedules are
	// fixed by seed, so these are stable across worker counts).
	MDBPreparedProbes  = "db_prepared_probes"
	MDBPreparedBatches = "db_prepared_batches"
	// Execution sessions (measured-kind probes). Opened-session count is
	// volatile — it depends on pool scheduling and worker count — while the
	// probe count follows the seed-fixed probe schedule and is stable.
	MDBSessionsOpened = "db_sessions_opened"
	MDBSessionProbes  = "db_session_probes"

	// Generator / static-analyzer tier.
	MGenAttempts       = "generator_attempts"
	MStaticSpecCatches = "analyzer_static_spec_catches"
	MStaticExecCatches = "analyzer_static_exec_catches"

	// Refinement (Algorithm 2).
	MRefineIterations   = "refine_iterations"
	MRefineGenerated    = "refine_generated"
	MRefineAccepted     = "refine_accepted"
	MRefineProfileFails = "refine_profile_fails"

	// Predicate search (Algorithm 3). MSearchEvals counts every probe BO
	// observes; MSearchMemoHits counts the ones answered from the
	// template's cost memo (profiler.Profile.Known) without a DBMS call.
	MSearchRounds    = "search_bo_rounds"
	MSearchEvals     = "search_evaluations"
	MSearchMemoHits  = "search_memo_hits"
	MSearchSkipped   = "search_skipped_intervals"
	MSearchBadCombos = "search_bad_combinations"

	// Profiling (§5.1): sample points whose query an earlier point of the
	// same sweep already costs, so the DBMS is asked once for both.
	MProfileDedupedProbes = "profiler_deduped_probes"

	// Baseline methods (internal/baselines).
	MBaselineEvals = "baseline_evaluations"

	// MIntervalsProbesSaved is never counted now that the pipeline runs no
	// cost-interval stage; it stays only because the bench/ harness reads it.
	MIntervalsProbesSaved = "intervals_probes_saved"

	// Run-level gauges, set by the pipeline at assembly.
	GWorkloadQueries  = "workload_queries"
	GWorkloadDistance = "workload_distance"
	GLLMCostUSD       = "llm_cost_usd"

	// Histograms.
	HGenAttempts   = "generator_attempts_per_template"
	HProfileProbes = "profiler_probes_per_template"
	HSearchBudget  = "search_bo_budget"
	// Per-call oracle latency in milliseconds, observed by the resilience
	// Latency middleware. Wall-clock-valued, hence volatile: excluded from
	// stable snapshots via Collector.MarkVolatileHistogram.
	HLLMLatencyMS = "llm_call_latency_ms"

	// Job-service tier (internal/server). Submitted/completed/cancelled/
	// failed/rejected are exact request accounting, adopted by reference from
	// the job manager's own counters. Active is a point-in-time occupancy
	// reading and the queue-wait histogram is wall-clock-valued; both depend
	// on scheduling, so they bind volatile.
	MServerJobsSubmitted = "server_jobs_submitted"
	MServerJobsActive    = "server_jobs_active"
	MServerJobsCompleted = "server_jobs_completed"
	MServerJobsCancelled = "server_jobs_cancelled"
	MServerJobsFailed    = "server_jobs_failed"
	MServerJobsRejected  = "server_jobs_rejected"
	HServerQueueWaitMS   = "server_queue_wait_ms"
)

// Attr is one key/value annotation on a span or event.
type Attr struct {
	Key   string
	Value string
}

// A builds an Attr.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// Kind classifies an Event.
type Kind uint8

// Event kinds.
const (
	// KindSpanStart opens a span (emitted by collectors, not callers).
	KindSpanStart Kind = iota + 1
	// KindSpanEnd closes a span and carries its duration.
	KindSpanEnd
	// KindProgress is one sample of the distance-over-time trajectory:
	// Value holds the Wasserstein distance, Dur the elapsed run time.
	KindProgress
	// KindMark is a free-form point annotation inside a span.
	KindMark
)

// String names the kind as it appears in JSONL exports.
func (k Kind) String() string {
	switch k {
	case KindSpanStart:
		return "span_start"
	case KindSpanEnd:
		return "span_end"
	case KindProgress:
		return "progress"
	case KindMark:
		return "mark"
	}
	return "unknown"
}

// Event is one trace record. At is the offset from the collector's start
// (never absolute wall time, so traces diff cleanly); Span/Parent identify
// the span tree; Value and Dur carry kind-specific payloads.
type Event struct {
	Kind   Kind
	At     time.Duration
	Span   int64
	Parent int64
	Name   string
	Value  float64
	Dur    time.Duration
	Attrs  []Attr
}

// Sink receives observations. Implementations must be safe for concurrent
// use and must treat every method as pure observation: recording may never
// influence the observed computation. Nop is the no-op default; FromContext
// returns it when no sink was attached, so instrumented code never
// nil-checks.
type Sink interface {
	// Now is the sink's clock. Instrumented packages read time through it
	// (never time.Now directly — barbervet R006) so tests can inject a
	// deterministic clock and timing authority stays in one place.
	Now() time.Time
	// StartSpan opens a child span. The returned Span is itself a Sink;
	// observations recorded through it are attributed to the span.
	StartSpan(name string, attrs ...Attr) Span
	// Count adds delta to the named counter.
	Count(name string, delta int64)
	// Gauge sets the named gauge.
	Gauge(name string, v float64)
	// Observe records v into the named histogram. Callers pass
	// integer-valued quantities so bucket counts and sums stay exact and
	// scheduling-independent.
	Observe(name string, v float64)
	// Emit records a free-form event (Progress, Mark).
	Emit(e Event)
}

// Span is one live span. End closes it; Annotate attaches attributes that
// are only known at completion (they ride on the span_end event).
type Span interface {
	Sink
	Annotate(attrs ...Attr)
	End()
}

// Counter is a standalone atomic counter that instrumented subsystems own
// directly (engine.DB's evaluation counters, llm.Ledger's token meters) and
// a Binder can adopt into its snapshot. Making the subsystem counter and the
// exported metric the same object is what guarantees they can never drift.
// The zero value is ready to use; a nil *Counter is a no-op.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Load returns the current value.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Store overwrites the current value (used by counter resets).
func (c *Counter) Store(d int64) {
	if c != nil {
		c.v.Store(d)
	}
}

// Binder is implemented by sinks that can adopt externally owned counters
// into their metric snapshot (the Collector). volatile marks metrics whose
// value legitimately depends on goroutine scheduling — shared-cache
// hits/misses — and are therefore excluded from the deterministic snapshot
// (Snapshot.Stable).
type Binder interface {
	BindCounter(name string, c *Counter, volatile bool)
}

// HistogramMarker is implemented by sinks that can flag a histogram as
// volatile (wall-clock- or scheduling-valued, e.g. per-call oracle latency)
// so it is excluded from the deterministic snapshot alongside volatile
// counters.
type HistogramMarker interface {
	MarkVolatileHistogram(name string)
}

// nop is the no-op sink and span.
type nop struct{}

// Nop is the default sink: every operation is free and side-effect-less.
var Nop Sink = nop{}

func (nop) Now() time.Time                 { return time.Now() }
func (nop) StartSpan(string, ...Attr) Span { return nopSpan{} }
func (nop) Count(string, int64)            {}
func (nop) Gauge(string, float64)          {}
func (nop) Observe(string, float64)        {}
func (nop) Emit(Event)                     {}

type nopSpan struct{ nop }

func (nopSpan) Annotate(...Attr) {}
func (nopSpan) End()             {}

type ctxKey struct{}

// NewContext returns a context carrying the sink.
func NewContext(ctx context.Context, s Sink) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the sink attached to ctx, or Nop.
func FromContext(ctx context.Context) Sink {
	if s, ok := ctx.Value(ctxKey{}).(Sink); ok && s != nil {
		return s
	}
	return Nop
}

// StartSpan opens a span on the context's sink and returns a child context
// whose sink is the span, plus the span itself (callers must End it).
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, Span) {
	sp := FromContext(ctx).StartSpan(name, attrs...)
	return NewContext(ctx, sp), sp
}

// OnEvent wraps a sink so fn sees every event emitted through it or any
// span derived from it, before the event reaches the inner sink. A caller
// watches progress this way (the CLI's -v, the daemon's SSE stream). When
// inner adopts counters (Binder), the wrapper forwards BindCounter and
// MarkVolatileHistogram to it, so a callback over a Collector still reports
// every subsystem counter.
func OnEvent(inner Sink, fn func(Event)) Sink {
	t := &teeSink{inner: inner, fn: fn}
	if b, ok := inner.(Binder); ok {
		return bindingTee{teeSink: t, b: b}
	}
	return t
}

// bindingTee is a teeSink over a Binder.
type bindingTee struct {
	*teeSink
	b Binder
}

func (t bindingTee) BindCounter(name string, c *Counter, volatile bool) {
	t.b.BindCounter(name, c, volatile)
}

func (t bindingTee) MarkVolatileHistogram(name string) {
	if hm, ok := t.inner.(HistogramMarker); ok {
		hm.MarkVolatileHistogram(name)
	}
}

type teeSink struct {
	inner Sink
	fn    func(Event)
}

func (t *teeSink) Now() time.Time { return t.inner.Now() }
func (t *teeSink) StartSpan(name string, attrs ...Attr) Span {
	return &teeSpan{Span: t.inner.StartSpan(name, attrs...), fn: t.fn}
}
func (t *teeSink) Count(name string, d int64)     { t.inner.Count(name, d) }
func (t *teeSink) Gauge(name string, v float64)   { t.inner.Gauge(name, v) }
func (t *teeSink) Observe(name string, v float64) { t.inner.Observe(name, v) }
func (t *teeSink) Emit(e Event) {
	t.fn(e)
	t.inner.Emit(e)
}

type teeSpan struct {
	Span
	fn func(Event)
}

func (t *teeSpan) StartSpan(name string, attrs ...Attr) Span {
	return &teeSpan{Span: t.Span.StartSpan(name, attrs...), fn: t.fn}
}
func (t *teeSpan) Emit(e Event) {
	t.fn(e)
	t.Span.Emit(e)
}

// JoinCodes renders a diagnostic-code list as one attribute value.
func JoinCodes(codes []string) string { return strings.Join(codes, "+") }
