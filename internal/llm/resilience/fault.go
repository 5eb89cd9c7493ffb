package resilience

import (
	"context"
	"fmt"
	"time"

	"sqlbarber/internal/llm"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/prand"
)

// FaultKind enumerates the failure modes the injector can replay.
type FaultKind uint8

const (
	// FaultTimeout simulates a request that waits out its deadline.
	FaultTimeout FaultKind = iota + 1
	// FaultRateLimit simulates an HTTP 429 carrying a Retry-After hint.
	FaultRateLimit
	// FaultUnavailable simulates an HTTP 503.
	FaultUnavailable
	// FaultTruncated simulates a response body cut off mid-stream.
	FaultTruncated
	// FaultSlowTrickle simulates a response that arrives intact but only
	// after a long stall — the call still succeeds.
	FaultSlowTrickle
)

// String names the fault for error messages.
func (k FaultKind) String() string {
	switch k {
	case FaultTimeout:
		return "timeout"
	case FaultRateLimit:
		return "rate-limit"
	case FaultUnavailable:
		return "unavailable"
	case FaultTruncated:
		return "truncated-body"
	case FaultSlowTrickle:
		return "slow-trickle"
	}
	return "unknown"
}

// FaultError is an injected transient failure.
type FaultError struct {
	Kind FaultKind
}

// Error implements error.
func (e *FaultError) Error() string { return fmt.Sprintf("resilience: injected %s fault", e.Kind) }

// Retryable marks injected faults transient so retry layers engage.
func (e *FaultError) Retryable() bool { return true }

// allFaultKinds is the schedule mix; every kind is equally likely.
var allFaultKinds = []FaultKind{FaultTimeout, FaultRateLimit, FaultUnavailable, FaultTruncated, FaultSlowTrickle}

// faultStall is the simulated stall of timeout and slow-trickle faults and
// the Retry-After of rate-limit faults, charged to the injectable clock.
const faultStall = 250 * time.Millisecond

// Faults replays a scripted fault schedule: whether attempt n of a given
// call faults — and how — is a pure function of (seed, call fingerprint, n)
// via a prand stream, so the schedule is identical across worker counts,
// goroutine interleavings, and reruns. Faults are decided BEFORE the base
// oracle is consulted, so the base sees exactly the fault-free call sequence
// and its random streams and ledger never shift — the core of the
// byte-identical-under-faults guarantee.
//
// Injection only happens while the attempt index is below maxFaultAttempts,
// so any retry budget larger than that recovers every call by construction.
type Faults struct {
	seed             int64
	rate             float64
	maxFaultAttempts int
	clock            llm.Clock

	injected obs.Counter
}

// NewFaults builds a fault injector firing with probability rate on attempts
// 0..maxFaultAttempts-1 (default 2 when non-positive) of each call. A nil
// clock defaults to llm.SystemClock — tests and benchmarks pass a FakeClock
// so stalls are instant.
func NewFaults(seed int64, rate float64, maxFaultAttempts int, clock llm.Clock) *Faults {
	if maxFaultAttempts <= 0 {
		maxFaultAttempts = 2
	}
	if clock == nil {
		clock = llm.SystemClock
	}
	return &Faults{seed: seed, rate: rate, maxFaultAttempts: maxFaultAttempts, clock: clock}
}

// Injected returns how many faults have fired.
func (f *Faults) Injected() int64 { return f.injected.Load() }

// BindObs adopts the injection counter by reference. The schedule is a pure
// function of call content, so the counter is stable across worker counts
// and binds non-volatile.
func (f *Faults) BindObs(b obs.Binder) {
	b.BindCounter(obs.MLLMFaultsInjected, &f.injected, false)
}

// Wrap implements llm.Middleware.
func (f *Faults) Wrap(next llm.Handler) llm.Handler {
	return func(ctx context.Context, c *llm.Call) (llm.Reply, error) {
		attempt := AttemptFromContext(ctx)
		if f.rate > 0 && attempt < f.maxFaultAttempts {
			rng := prand.New(f.seed, prand.StageOracle, prand.HashString(c.Fingerprint()), int64(attempt))
			if rng.Float64() < f.rate {
				kind := allFaultKinds[rng.Intn(len(allFaultKinds))]
				f.injected.Add(1)
				switch kind {
				case FaultSlowTrickle:
					// The response eventually arrives intact: stall, then
					// delegate. No retry is consumed.
					if err := f.clock.Sleep(ctx, faultStall); err != nil {
						return llm.Reply{}, err
					}
				case FaultTimeout:
					if err := f.clock.Sleep(ctx, faultStall); err != nil {
						return llm.Reply{}, err
					}
					return llm.Reply{}, &FaultError{Kind: FaultTimeout}
				case FaultRateLimit:
					return llm.Reply{}, &llm.RateLimitError{Status: 429, RetryAfter: faultStall, Body: "injected rate limit"}
				case FaultUnavailable:
					return llm.Reply{}, &llm.RateLimitError{Status: 503, Body: "injected unavailable"}
				case FaultTruncated:
					return llm.Reply{}, &FaultError{Kind: FaultTruncated}
				}
			}
		}
		return next(ctx, c)
	}
}
