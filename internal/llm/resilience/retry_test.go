package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"sqlbarber/internal/llm"
)

// call builds a minimal Call whose prompt needs no schema — enough identity
// for middleware tests.
func call() *llm.Call {
	return &llm.Call{Kind: llm.CallFixExecution, TemplateSQL: "SELECT 1 FROM t", DBMSError: "boom"}
}

type permanentErr struct{}

func (permanentErr) Error() string   { return "permanent" }
func (permanentErr) Retryable() bool { return false }

func TestRetryRecoversTransientFailures(t *testing.T) {
	clock := llm.NewFakeClock()
	r := NewRetry(llm.RetryPolicy{MaxAttempts: 4, BaseBackoff: 10 * time.Millisecond}, clock, 1)
	attempts := 0
	h := r.Wrap(func(ctx context.Context, c *llm.Call) (llm.Reply, error) {
		attempts++
		if attempts < 3 {
			return llm.Reply{}, fmt.Errorf("transient %d", attempts)
		}
		return llm.Reply{Text: "ok"}, nil
	})
	rep, err := h(context.Background(), call())
	if err != nil || rep.Text != "ok" {
		t.Fatalf("rep=%+v err=%v", rep, err)
	}
	if attempts != 3 || r.Retries() != 2 {
		t.Fatalf("attempts=%d retries=%d", attempts, r.Retries())
	}
	sleeps := clock.Sleeps()
	if len(sleeps) != 2 || sleeps[0] != 10*time.Millisecond || sleeps[1] != 20*time.Millisecond {
		t.Fatalf("backoff schedule %v, want [10ms 20ms]", sleeps)
	}
}

// TestRetryBackoffNeverWraps drives enough attempts for an unchecked
// doubling of 1s to overflow time.Duration. Capped, every sleep from the cap
// onward is exactly the cap; uncapped (with jitter), the backoff saturates
// instead of going negative, so no retry fires without a wait.
func TestRetryBackoffNeverWraps(t *testing.T) {
	fail := func(ctx context.Context, c *llm.Call) (llm.Reply, error) {
		return llm.Reply{}, errors.New("transient")
	}

	clock := llm.NewFakeClock()
	policy := llm.RetryPolicy{MaxAttempts: 40, BaseBackoff: time.Second, MaxBackoff: 30 * time.Second}
	if _, err := NewRetry(policy, clock, 1).Wrap(fail)(context.Background(), call()); err == nil {
		t.Fatal("always-failing handler succeeded")
	}
	sleeps := clock.Sleeps()
	if len(sleeps) != 39 {
		t.Fatalf("capped: %d sleeps for 39 retries: %v", len(sleeps), sleeps)
	}
	for i, d := range sleeps {
		want := min(time.Second<<min(i, 5), 30*time.Second)
		if d != want {
			t.Fatalf("capped: sleep %d = %v, want %v (schedule %v)", i, d, want, sleeps)
		}
	}

	clock = llm.NewFakeClock()
	policy = llm.RetryPolicy{MaxAttempts: 70, BaseBackoff: time.Second, Jitter: 0.5}
	if _, err := NewRetry(policy, clock, 1).Wrap(fail)(context.Background(), call()); err == nil {
		t.Fatal("always-failing handler succeeded")
	}
	sleeps = clock.Sleeps()
	if len(sleeps) != 69 {
		t.Fatalf("uncapped: %d sleeps for 69 retries", len(sleeps))
	}
	for i, d := range sleeps {
		if d < time.Second<<min(i, 32) {
			t.Fatalf("uncapped: sleep %d = %v is below its unjittered backoff (schedule %v)", i, d, sleeps)
		}
	}
}

func TestRetryHonorsRetryAfterHint(t *testing.T) {
	clock := llm.NewFakeClock()
	r := NewRetry(llm.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Second}, clock, 1)
	attempts := 0
	h := r.Wrap(func(ctx context.Context, c *llm.Call) (llm.Reply, error) {
		attempts++
		if attempts == 1 {
			return llm.Reply{}, &llm.RateLimitError{Status: 429, RetryAfter: 9 * time.Second}
		}
		return llm.Reply{Text: "ok"}, nil
	})
	if _, err := h(context.Background(), call()); err != nil {
		t.Fatal(err)
	}
	sleeps := clock.Sleeps()
	if len(sleeps) != 1 || sleeps[0] != 9*time.Second {
		t.Fatalf("Retry-After ignored: slept %v, want [9s]", sleeps)
	}
}

func TestRetryStopsOnPermanentErrors(t *testing.T) {
	r := NewRetry(llm.RetryPolicy{MaxAttempts: 5}, llm.NewFakeClock(), 1)
	attempts := 0
	h := r.Wrap(func(ctx context.Context, c *llm.Call) (llm.Reply, error) {
		attempts++
		return llm.Reply{}, permanentErr{}
	})
	_, err := h(context.Background(), call())
	if err == nil || attempts != 1 {
		t.Fatalf("permanent error retried: attempts=%d err=%v", attempts, err)
	}
}

func TestRetryStopsOnContextCancellation(t *testing.T) {
	r := NewRetry(llm.RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Minute}, llm.NewFakeClock(), 1)
	ctx, cancel := context.WithCancel(context.Background())
	attempts := 0
	h := r.Wrap(func(ctx context.Context, c *llm.Call) (llm.Reply, error) {
		attempts++
		cancel()
		return llm.Reply{}, errors.New("transient")
	})
	_, err := h(ctx, call())
	if err == nil || attempts != 1 {
		t.Fatalf("cancelled context retried: attempts=%d err=%v", attempts, err)
	}
}

func TestRetryJitterIsDeterministic(t *testing.T) {
	run := func() []time.Duration {
		clock := llm.NewFakeClock()
		r := NewRetry(llm.RetryPolicy{MaxAttempts: 4, BaseBackoff: 100 * time.Millisecond, Jitter: 0.5}, clock, 42)
		h := r.Wrap(func(ctx context.Context, c *llm.Call) (llm.Reply, error) {
			return llm.Reply{}, errors.New("always fails")
		})
		h(context.Background(), call())
		return clock.Sleeps()
	}
	a, b := run(), run()
	if len(a) != 3 {
		t.Fatalf("expected 3 jittered sleeps, got %v", a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter not deterministic: %v vs %v", a, b)
		}
		base := 100 * time.Millisecond << i
		if a[i] < base || a[i] > base+base/2 {
			t.Fatalf("sleep %d = %v outside [%v, %v]", i, a[i], base, base+base/2)
		}
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{fmt.Errorf("wrapped: %w", context.DeadlineExceeded), false},
		{permanentErr{}, false},
		{&llm.RateLimitError{Status: 429}, true},
		{&FaultError{Kind: FaultTruncated}, true},
		{errors.New("who knows"), true},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}
