package resilience

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"sqlbarber/internal/llm"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/prand"
)

// Retry re-issues failed calls under an llm.RetryPolicy: exponential backoff
// with deterministic jitter, a server-requested Retry-After always winning
// over the computed backoff, and context cancellation cutting both sleeps
// and further attempts short. Errors that declare Retryable() false — and
// context errors — are returned immediately.
//
// The attempt index is installed in the context (AttemptFromContext) so the
// fault injector can schedule faults per attempt; the jitter stream is keyed
// by (seed, call fingerprint, attempt), making the full retry schedule a
// pure function of call content.
type Retry struct {
	policy llm.RetryPolicy
	clock  llm.Clock
	seed   int64

	retries obs.Counter // sleeps taken, i.e. attempts beyond the first
}

// NewRetry builds a Retry middleware. A zero MaxAttempts defaults to 3; a
// nil clock defaults to llm.SystemClock.
func NewRetry(policy llm.RetryPolicy, clock llm.Clock, seed int64) *Retry {
	if policy.MaxAttempts <= 0 {
		policy.MaxAttempts = 3
	}
	if clock == nil {
		clock = llm.SystemClock
	}
	return &Retry{policy: policy, clock: clock, seed: seed}
}

// Retries returns the number of retry attempts issued so far.
func (r *Retry) Retries() int64 { return r.retries.Load() }

// BindObs adopts the retry counter by reference. Retry counts are pure
// functions of call content under deterministic fault schedules, so the
// metric binds non-volatile and participates in stable snapshots.
func (r *Retry) BindObs(b obs.Binder) {
	b.BindCounter(obs.MLLMRetries, &r.retries, false)
}

// Retryable classifies an error for retry purposes: context errors are
// permanent (the caller is gone), errors exposing Retryable() speak for
// themselves, and everything else is assumed transient.
func Retryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var r interface{ Retryable() bool }
	if errors.As(err, &r) {
		return r.Retryable()
	}
	return true
}

// retryAfterHint extracts a server-requested wait from the error chain.
func retryAfterHint(err error) (time.Duration, bool) {
	var rl *llm.RateLimitError
	if errors.As(err, &rl) && rl.RetryAfter > 0 {
		return rl.RetryAfter, true
	}
	return 0, false
}

// Wrap implements llm.Middleware.
func (r *Retry) Wrap(next llm.Handler) llm.Handler {
	return func(ctx context.Context, c *llm.Call) (llm.Reply, error) {
		backoff := r.policy.BaseBackoff
		var lastErr error
		for attempt := 0; attempt < r.policy.MaxAttempts; attempt++ {
			if attempt > 0 {
				r.retries.Add(1)
				d := backoff
				if hint, ok := retryAfterHint(lastErr); ok {
					d = hint
				}
				if r.policy.MaxBackoff > 0 && d > r.policy.MaxBackoff {
					d = r.policy.MaxBackoff
				}
				if r.policy.Jitter > 0 && d > 0 {
					rng := prand.New(r.seed, prand.StageOracle, prand.HashString(c.Fingerprint()), int64(attempt))
					if j := r.policy.Jitter * float64(d) * rng.Float64(); j < float64(math.MaxInt64-d) {
						d += time.Duration(j)
					} else {
						d = math.MaxInt64
					}
				}
				if d > 0 {
					if err := r.clock.Sleep(ctx, d); err != nil {
						return llm.Reply{}, fmt.Errorf("resilience: retry cancelled during backoff: %w", err)
					}
				}
				// Stop doubling at the cap, and saturate rather than wrap
				// negative when uncapped.
				switch {
				case r.policy.MaxBackoff > 0 && backoff >= r.policy.MaxBackoff:
				case backoff > math.MaxInt64/2:
					backoff = math.MaxInt64
				default:
					backoff *= 2
				}
			}
			rep, err := next(withAttempt(ctx, attempt), c)
			if err == nil {
				return rep, nil
			}
			lastErr = err
			if !Retryable(err) || ctx.Err() != nil {
				break
			}
		}
		return llm.Reply{}, lastErr
	}
}
