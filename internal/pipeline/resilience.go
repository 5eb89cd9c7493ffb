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
// policies compose naturally: a retry-only policy leaves hedging, breaking,
// and limiting off. Middlewares assemble in the canonical order
// Latency → Cache → Retry → Breaker → Hedge → Limiter → Faults (outermost
// first); see package llm/resilience for why that order is the only one that
// preserves determinism under injected faults.
type ResiliencePolicy struct {
	// Retry is the outer retry loop. MaxAttempts <= 1 disables retries.
	Retry llm.RetryPolicy

	// HedgeAfter launches a backup call when the first leg has been in
	// flight this long (0 disables hedging). HedgePercentile, when in
	// (0, 1), replaces the static deadline with that percentile of observed
	// call latency once enough samples exist.
	HedgeAfter      time.Duration
	HedgePercentile float64

	// BreakerThreshold opens the circuit after this many consecutive
	// failures (0 disables the breaker). BreakerCooldown is how long the
	// circuit stays open before a half-open probe (default 30s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// RateLimit caps calls per second through a token bucket (0 = no rate
	// cap); RateBurst is the bucket size (default 1 when rate-limited).
	// MaxConcurrent caps in-flight calls (0 = unbounded).
	RateLimit     float64
	RateBurst     int
	MaxConcurrent int

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
	// tests inject llm.NewFakeClock() so backoff and hedge deadlines cost no
	// wall-clock time.
	Clock llm.Clock
}

// enabled reports whether any middleware besides Latency/Cache would be
// built from the policy.
func (p ResiliencePolicy) enabled() bool {
	return p.Retry.MaxAttempts > 1 || p.HedgeAfter > 0 || p.BreakerThreshold > 0 ||
		p.RateLimit > 0 || p.MaxConcurrent > 0 || p.FaultRate > 0
}

// validate reports the first policy violation wrapped in ErrBadResilience.
func (p ResiliencePolicy) validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadResilience, fmt.Sprintf(format, args...))
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"jitter", p.Retry.Jitter}, {"hedge percentile", p.HedgePercentile}, {"rate", p.RateLimit}, {"fault rate", p.FaultRate}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return bad("%s %g is not finite", f.name, f.v)
		}
	}
	switch {
	case p.Retry.MaxAttempts < 0:
		return bad("retry attempts %d < 0", p.Retry.MaxAttempts)
	case p.Retry.BaseBackoff < 0 || p.Retry.MaxBackoff < 0 || p.BreakerCooldown < 0:
		return bad("backoff, max backoff and cooldown must be >= 0")
	case p.Retry.Jitter < 0 || p.Retry.Jitter > 1:
		return bad("jitter %g outside [0, 1]", p.Retry.Jitter)
	case p.HedgeAfter < 0:
		return bad("hedge deadline %v < 0", p.HedgeAfter)
	case p.HedgePercentile < 0 || p.HedgePercentile >= 1:
		return bad("hedge percentile %g outside [0, 1)", p.HedgePercentile)
	case p.BreakerThreshold < 0:
		return bad("breaker threshold %d < 0", p.BreakerThreshold)
	case p.RateLimit < 0 || p.RateBurst < 0 || p.MaxConcurrent < 0:
		return bad("rate/burst/concurrency must be >= 0")
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

// WithResilience wraps the oracle in the retry/hedge/breaker/limiter chain
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
//	retry=4,backoff=100ms,jitter=0.3,hedge=500ms,breaker=5,rate=2,conc=8
//
// Keys: retry, backoff, maxbackoff, jitter, hedge, hedgepct, breaker,
// cooldown, rate, burst, conc, fault, faultattempts, faultseed. Unknown keys
// and malformed values are reported wrapped in ErrBadResilience; the parsed
// policy is validated exactly like WithResilience's argument.
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
		case "hedge":
			p.HedgeAfter, err = time.ParseDuration(val)
		case "hedgepct":
			p.HedgePercentile, err = strconv.ParseFloat(val, 64)
		case "breaker":
			p.BreakerThreshold, err = strconv.Atoi(val)
		case "cooldown":
			p.BreakerCooldown, err = time.ParseDuration(val)
		case "rate":
			p.RateLimit, err = strconv.ParseFloat(val, 64)
		case "burst":
			p.RateBurst, err = strconv.Atoi(val)
		case "conc":
			p.MaxConcurrent, err = strconv.Atoi(val)
		case "fault":
			p.FaultRate, err = strconv.ParseFloat(val, 64)
		case "faultattempts":
			p.FaultAttempts, err = strconv.Atoi(val)
		case "faultseed":
			var n int64
			n, err = strconv.ParseInt(val, 10, 64)
			p.FaultSeed = n
		default:
			return bad("unknown key %q", key)
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
// is configured). Order is the canonical Latency → Cache → Retry → Breaker
// → Hedge → Limiter → Faults; llm.Chain treats the first middleware as
// outermost.
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
	if p.BreakerThreshold > 0 {
		mws = append(mws, resilience.NewBreaker(p.BreakerThreshold, p.BreakerCooldown, clock))
	}
	if p.HedgeAfter > 0 {
		mws = append(mws, resilience.NewHedge(p.HedgeAfter, p.HedgePercentile, clock))
	}
	if p.RateLimit > 0 || p.MaxConcurrent > 0 {
		mws = append(mws, resilience.NewLimiter(p.RateLimit, p.RateBurst, p.MaxConcurrent, clock))
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
