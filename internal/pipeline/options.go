package pipeline

import (
	"context"
	"errors"
	"fmt"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/spec"
	"sqlbarber/internal/stats"
)

// Coded constructor errors. New wraps each with context (the offending
// value); match with errors.Is.
var (
	// ErrNilDB reports a nil database handle.
	ErrNilDB = errors.New("pipeline: DB must not be nil")
	// ErrNilOracle reports a nil LLM oracle.
	ErrNilOracle = errors.New("pipeline: Oracle must not be nil")
	// ErrNoSpecs reports an empty specification list: with no specs no
	// template can be generated, so the run could never produce a workload.
	ErrNoSpecs = errors.New("pipeline: at least one spec is required")
	// ErrNilTarget reports a missing target cost distribution.
	ErrNilTarget = errors.New("pipeline: Target must not be nil")
	// ErrBadParallel reports a non-positive worker count.
	ErrBadParallel = errors.New("pipeline: Parallel must be >= 1")
	// ErrBadProfileFraction reports a profiling budget outside (0, 1].
	ErrBadProfileFraction = errors.New("pipeline: ProfileFraction must be in (0, 1]")
	// ErrBadCostKind reports an unknown cost metric.
	ErrBadCostKind = errors.New("pipeline: unknown CostKind")
	// ErrNilSink reports WithObs(nil): passing the option at all declares
	// intent to observe, so a nil sink is a caller bug rather than "no obs".
	ErrNilSink = errors.New("pipeline: WithObs sink must not be nil")
)

// Option configures a Pipeline built by New. Every option validates its
// argument; New reports the first violation as a coded error.
type Option func(*Config) error

// WithSeed sets the seed driving all stochastic components.
func WithSeed(seed int64) Option {
	return func(c *Config) error {
		c.Seed = seed
		return nil
	}
}

// WithParallel fans independent work over n goroutines. It is the run's
// only worker count: the generator, profiler and searcher all take it.
// Output is byte-identical for any n >= 1.
func WithParallel(n int) Option {
	return func(c *Config) error {
		if n < 1 {
			return fmt.Errorf("%w (got %d)", ErrBadParallel, n)
		}
		c.Parallel = n
		return nil
	}
}

// WithCostKind selects the cost metric the run targets.
func WithCostKind(kind engine.CostKind) Option {
	return func(c *Config) error {
		switch kind {
		case engine.Cardinality, engine.PlanCost, engine.ExecTimeMS, engine.RowsProcessed:
			c.CostKind = kind
			return nil
		}
		return fmt.Errorf("%w (got %v)", ErrBadCostKind, kind)
	}
}

// WithAblations selects the paper ablations to run.
func WithAblations(a Ablations) Option {
	return func(c *Config) error {
		c.Ablations = a
		return nil
	}
}

// WithProfileFraction sets the profiling budget as a fraction of the
// requested query count (§5.1).
func WithProfileFraction(f float64) Option {
	return func(c *Config) error {
		if f <= 0 || f > 1 {
			return fmt.Errorf("%w (got %g)", ErrBadProfileFraction, f)
		}
		c.ProfileFraction = f
		return nil
	}
}

// WithObs attaches an observability sink. Observation is pure: the generated
// workload is byte-identical with or without a sink.
func WithObs(sink obs.Sink) Option {
	return func(c *Config) error {
		if sink == nil {
			return ErrNilSink
		}
		c.Obs = sink
		return nil
	}
}

// Pipeline is a validated, ready-to-run workload-generation task built by
// New. It is immutable after construction; Run may be called any number of
// times (each call is an independent generation against the same database).
type Pipeline struct {
	cfg Config
}

// New validates the task up front and returns a runnable Pipeline. The four
// required dependencies are positional — everything optional arrives as
// functional options with defaulting and validation — so a misconfigured run
// fails here with a coded error instead of deep inside a stage.
func New(db *engine.DB, oracle llm.Oracle, specs []spec.Spec, target *stats.TargetDistribution, opts ...Option) (*Pipeline, error) {
	switch {
	case db == nil:
		return nil, ErrNilDB
	case oracle == nil:
		return nil, ErrNilOracle
	case len(specs) == 0:
		return nil, ErrNoSpecs
	case target == nil:
		return nil, ErrNilTarget
	}
	cfg := Config{
		DB:              db,
		Oracle:          oracle,
		Specs:           specs,
		Target:          target,
		Parallel:        1,
		ProfileFraction: 0.15,
	}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	return &Pipeline{cfg: cfg}, nil
}

// Run executes the pipeline: generate → intervals → profile →
// refine/search → assemble. Cancelling ctx stops work at the next stage (or
// intra-stage wave) boundary and returns a partial Result — Partial is set,
// CancelledStage names the stage that observed the cancellation, and the
// workload holds the best queries gathered before the cut. Hard failures (no
// valid templates, oracle breakdown) return an error.
func (p *Pipeline) Run(ctx context.Context) (*Result, error) {
	return run(ctx, p.cfg)
}
