package llm

import (
	"context"
	"sync"
	"time"
)

// Clock abstracts every sleep and deadline in the LLM layer. Production code
// uses SystemClock; tests and the deterministic fault-injection benchmarks
// substitute a FakeClock so retry backoff and injected fault stalls advance
// instantly and reproducibly. barbervet rule R009 enforces that internal/llm
// never calls time.Sleep or time.After directly — all waiting funnels
// through this interface, which is the determinism argument for the
// resilience middleware: wall-clock time can influence *when* work happens
// but never *what* the pipeline produces.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in the
	// latter case and nil once the full duration has elapsed. Non-positive
	// durations return immediately (still reporting a dead context).
	Sleep(ctx context.Context, d time.Duration) error
}

// SystemClock is the wall-clock implementation used outside tests.
var SystemClock Clock = systemClock{}

type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

func (systemClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// FakeClock is a deterministic Clock for tests and benchmarks: Now starts at
// the Unix epoch and every Sleep advances it by the requested duration
// instantly, recording the request. It is safe for concurrent use.
type FakeClock struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
}

// NewFakeClock returns a FakeClock starting at the Unix epoch.
func NewFakeClock() *FakeClock { return &FakeClock{now: time.Unix(0, 0).UTC()} }

// Now returns the fake instant.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep advances the fake instant by d without blocking and records d. A
// dead context is still honoured so cancellation paths stay testable.
func (c *FakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.sleeps = append(c.sleeps, d)
	c.mu.Unlock()
	return nil
}

// Sleeps returns a copy of every recorded sleep duration in request order.
func (c *FakeClock) Sleeps() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]time.Duration, len(c.sleeps))
	copy(out, c.sleeps)
	return out
}
