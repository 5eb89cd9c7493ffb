package pipeline

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"sqlbarber/internal/llm"
	"sqlbarber/internal/llm/resilience"
	"sqlbarber/internal/storage"
)

// Coded errors for the resilience options; match with errors.Is.
var (
	// ErrBadResilience reports an invalid resilience policy (negative knobs
	// or durations, non-finite or out-of-range rates, or a fault window the
	// retry budget cannot cover).
	ErrBadResilience = errors.New("pipeline: invalid resilience policy")
	// ErrBadCacheDir reports an oracle cache directory that cannot be opened.
	ErrBadCacheDir = errors.New("pipeline: oracle cache dir unusable")
)

// ResiliencePolicy configures the middleware chain Run wraps around the
// oracle. The zero value of every knob disables that middleware, so partial
// policies compose naturally: a retry-only policy injects no faults.
// Middlewares assemble in the canonical order Latency → Cache → Retry →
// Faults (outermost first); see package llm/resilience for why that order is
// the only one that preserves determinism under injected faults.
type ResiliencePolicy struct {
	// Retry is the outer retry loop. MaxAttempts <= 1 disables retries.
	Retry llm.RetryPolicy

	// FaultRate injects deterministic faults into this fraction of
	// (call, attempt) pairs before they reach the base oracle (0 disables
	// injection; test/bench use only). FaultAttempts bounds the attempt
	// indices that may fault (default 2); recovery is guaranteed by
	// construction when Retry.MaxAttempts > FaultAttempts, and WithResilience
	// rejects policies that violate that. FaultSeed keys the schedule
	// (0 means the run seed).
	FaultRate     float64
	FaultAttempts int
	FaultSeed     int64

	// Clock drives every sleep in the chain. Nil means llm.SystemClock;
	// tests inject llm.NewFakeClock() so backoff and fault stalls cost no
	// wall-clock time.
	Clock llm.Clock
}

// enabled reports whether any middleware besides Latency/Cache would be
// built from the policy.
func (p ResiliencePolicy) enabled() bool {
	return p.Retry.MaxAttempts > 1 || p.FaultRate > 0
}

// validate reports the first policy violation wrapped in ErrBadResilience.
func (p ResiliencePolicy) validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadResilience, fmt.Sprintf(format, args...))
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"jitter", p.Retry.Jitter}, {"fault rate", p.FaultRate}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return bad("%s %g is not finite", f.name, f.v)
		}
	}
	switch {
	case p.Retry.MaxAttempts < 0:
		return bad("retry attempts %d < 0", p.Retry.MaxAttempts)
	case p.Retry.BaseBackoff < 0 || p.Retry.MaxBackoff < 0:
		return bad("backoff and max backoff must be >= 0")
	case p.Retry.Jitter < 0 || p.Retry.Jitter > 1:
		return bad("jitter %g outside [0, 1]", p.Retry.Jitter)
	case p.FaultRate < 0 || p.FaultRate > 1:
		return bad("fault rate %g outside [0, 1]", p.FaultRate)
	case p.FaultAttempts < 0:
		return bad("fault attempts %d < 0", p.FaultAttempts)
	}
	if p.FaultRate > 0 {
		window := p.FaultAttempts
		if window == 0 {
			window = 2
		}
		if p.Retry.MaxAttempts <= window {
			return bad("fault injection needs retry attempts > fault window (%d <= %d): recovery would not be guaranteed",
				p.Retry.MaxAttempts, window)
		}
	}
	return nil
}

// WithResilience wraps the oracle in the retry and fault-injection chain
// described by the policy. The policy is validated here so a bad
// configuration fails at New with an errors.Is-matchable ErrBadResilience
// instead of misbehaving mid-run.
func WithResilience(p ResiliencePolicy) Option {
	return func(c *Config) error {
		if err := p.validate(); err != nil {
			return err
		}
		c.Resilience = &p
		return nil
	}
}

// WithOracleCacheDir adds a persistent content-addressed prompt cache at dir
// (created if missing) as the outermost paid layer of the oracle chain: a
// warm rerun with the same seed serves every prompt from disk and consumes
// zero paid LLM calls. The directory is opened here so an unusable path
// fails at New with an errors.Is-matchable ErrBadCacheDir.
func WithOracleCacheDir(dir string) Option {
	return func(c *Config) error {
		if strings.TrimSpace(dir) == "" {
			return fmt.Errorf("%w: empty path", ErrBadCacheDir)
		}
		store, err := storage.OpenPromptCache(dir)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadCacheDir, err)
		}
		c.OracleCache = store
		return nil
	}
}

// ParseResiliencePolicy parses the comma-separated key=value form the
// -llm-policy flag accepts, e.g.
//
//	retry=4,backoff=100ms,jitter=0.3
//
// Keys: retry, backoff, maxbackoff, jitter, fault, faultattempts, faultseed.
// Unknown keys and malformed values are reported wrapped in ErrBadResilience;
// the parsed policy is validated exactly like WithResilience's argument.
func ParseResiliencePolicy(s string) (ResiliencePolicy, error) {
	var p ResiliencePolicy
	bad := func(format string, args ...any) (ResiliencePolicy, error) {
		return ResiliencePolicy{}, fmt.Errorf("%w: %s", ErrBadResilience, fmt.Sprintf(format, args...))
	}
	if strings.TrimSpace(s) == "" {
		return bad("empty policy string")
	}
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return bad("%q is not key=value", kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "retry":
			p.Retry.MaxAttempts, err = strconv.Atoi(val)
		case "backoff":
			p.Retry.BaseBackoff, err = time.ParseDuration(val)
		case "maxbackoff":
			p.Retry.MaxBackoff, err = time.ParseDuration(val)
		case "jitter":
			p.Retry.Jitter, err = strconv.ParseFloat(val, 64)
		case "fault":
			p.FaultRate, err = strconv.ParseFloat(val, 64)
		case "faultattempts":
			p.FaultAttempts, err = strconv.Atoi(val)
		case "faultseed":
			var n int64
			n, err = strconv.ParseInt(val, 10, 64)
			p.FaultSeed = n
		default:
			return bad("unknown key %q (valid keys: retry, backoff, maxbackoff, jitter, fault, faultattempts, faultseed)", key)
		}
		if err != nil {
			return bad("%s=%q: %v", key, val, err)
		}
	}
	if err := p.validate(); err != nil {
		return ResiliencePolicy{}, err
	}
	return p, nil
}

// chainOracle builds the middleware chain the Config asks for and returns
// the wrapped oracle (or the bare oracle when neither a policy nor a cache
// is configured). Order is the canonical Latency → Cache → Retry → Faults;
// llm.Chain treats the first middleware as outermost.
func chainOracle(cfg *Config) llm.Oracle {
	pol := cfg.Resilience
	if pol == nil && cfg.OracleCache == nil {
		return cfg.Oracle
	}
	var p ResiliencePolicy
	if pol != nil {
		p = *pol
	}
	clock := p.Clock
	if clock == nil {
		clock = llm.SystemClock
	}
	mws := []llm.Middleware{resilience.Latency{}}
	if cfg.OracleCache != nil {
		mws = append(mws, resilience.NewCache(cfg.OracleCache))
	}
	if p.Retry.MaxAttempts > 1 {
		mws = append(mws, resilience.NewRetry(p.Retry, clock, cfg.Seed))
	}
	if p.FaultRate > 0 {
		seed := p.FaultSeed
		if seed == 0 {
			seed = cfg.Seed
		}
		attempts := p.FaultAttempts
		if attempts == 0 {
			attempts = 2
		}
		mws = append(mws, resilience.NewFaults(seed, p.FaultRate, attempts, clock))
	}
	return llm.Chain(cfg.Oracle, mws...)
}
