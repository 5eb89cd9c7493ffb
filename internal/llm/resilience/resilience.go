// Package resilience makes any llm.Oracle reproducible and recoverable
// behind composable middleware: jittered context-aware retries, a persistent
// content-addressed prompt cache, and a deterministic fault injector for
// testing the whole stack.
//
// Middlewares compose through llm.Chain(base, mw...), where mw[0] is the
// outermost layer. The canonical production order is
//
//	Latency → Cache → Retry (→ Faults)
//
// so cache hits cost nothing downstream, every retry attempt re-enters the
// fault schedule with its own attempt index, and injected faults sit
// directly in front of the base oracle.
//
// Determinism: every sleep and deadline goes through an injectable llm.Clock
// (barbervet R009 bans direct time.Sleep/time.After in internal/llm), retry
// jitter and fault schedules are pure functions of (seed, call fingerprint,
// attempt index) via prand streams, and faults are decided BEFORE the base
// oracle is consulted — so the base oracle observes exactly the fault-free
// call sequence and its random streams, ledger, and outputs are untouched by
// how many faults fired. That is why a pipeline under injected faults
// produces byte-identical workloads at any -parallel width.
package resilience

import "context"

// attemptKey carries the retry attempt index (0 = first try) through the
// context so inner layers — the fault injector above all — can key decisions
// on it without threading state through the Call.
type attemptKey struct{}

func withAttempt(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, attemptKey{}, n)
}

// AttemptFromContext returns the retry attempt index installed by Retry
// (0 when no Retry middleware is upstream).
func AttemptFromContext(ctx context.Context) int {
	if n, ok := ctx.Value(attemptKey{}).(int); ok {
		return n
	}
	return 0
}
