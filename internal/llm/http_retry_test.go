package llm_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"sqlbarber/internal/datagen"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/llm/resilience"
	"sqlbarber/internal/stats"
)

// The HTTP oracle sends one request per call; these tests drive it under
// resilience.Retry, the only layer that retries oracle calls.

// flakyServer answers each request with fail(hit) when it returns true
// (hit counts from 1), and with a one-choice completion otherwise.
func flakyServer(t *testing.T, hits *atomic.Int64, fail func(hit int64, w http.ResponseWriter) bool) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fail(hits.Add(1), w) {
			return
		}
		json.NewEncoder(w).Encode(map[string]any{
			"choices": []map[string]any{{"message": map[string]any{"role": "assistant", "content": "SELECT 1 FROM t"}}},
		})
	}))
	t.Cleanup(srv.Close)
	return srv
}

func refineReq() llm.RefineRequest {
	return llm.RefineRequest{Schema: datagen.TPCH(1, 0.01).Schema, TemplateSQL: "SELECT 1 FROM t",
		Target: stats.Interval{Lo: 0, Hi: 10}}
}

func TestHTTPOracleSendsOneRequestPerCall(t *testing.T) {
	var hits atomic.Int64
	srv := flakyServer(t, &hits, func(_ int64, w http.ResponseWriter) bool {
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
		return true
	})
	_, err := llm.NewHTTPOracle(srv.URL).RefineTemplate(context.Background(), refineReq())
	var rl *llm.RateLimitError
	if !errors.As(err, &rl) || rl.Status != http.StatusServiceUnavailable || !resilience.Retryable(err) {
		t.Fatalf("503 must surface as a retryable RateLimitError, got %v", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("bare oracle sent %d requests for one call, want 1", hits.Load())
	}
}

func TestHTTPOracleRetriesTransientErrors(t *testing.T) {
	var hits atomic.Int64
	srv := flakyServer(t, &hits, func(hit int64, w http.ResponseWriter) bool {
		if hit == 1 {
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return true
		}
		return false
	})
	o := llm.Chain(llm.NewHTTPOracle(srv.URL), resilience.NewRetry(llm.RetryPolicy{MaxAttempts: 3}, llm.NewFakeClock(), 0))
	sql, err := o.RefineTemplate(context.Background(), refineReq())
	if err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if sql != "SELECT 1 FROM t" || hits.Load() != 2 {
		t.Fatalf("sql=%q hits=%d", sql, hits.Load())
	}
}

// TestHTTPOracleFatalErrorsDoNotRetry checks every non-transient failure
// reports Retryable() == false, so a retry layer tries it exactly once.
func TestHTTPOracleFatalErrorsDoNotRetry(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
		body   string
	}{
		{"bad request", http.StatusBadRequest, `{"error":{"message":"invalid model"}}`},
		{"undecodable body", http.StatusOK, `not json`},
		{"api error", http.StatusOK, `{"error":{"message":"quota"}}`},
		{"empty choices", http.StatusOK, `{"choices":[]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hits atomic.Int64
			srv := flakyServer(t, &hits, func(_ int64, w http.ResponseWriter) bool {
				w.WriteHeader(tc.status)
				w.Write([]byte(tc.body))
				return true
			})
			o := llm.Chain(llm.NewHTTPOracle(srv.URL), resilience.NewRetry(llm.RetryPolicy{MaxAttempts: 3}, llm.NewFakeClock(), 0))
			db := datagen.TPCH(1, 0.01)
			_, err := o.FixExecution(context.Background(), "SELECT 1", "syntax error", llm.GenerateRequest{Schema: db.Schema})
			if err == nil {
				t.Fatal("fatal response must error")
			}
			if resilience.Retryable(err) {
				t.Fatalf("fatal response reported retryable: %v", err)
			}
			if hits.Load() != 1 {
				t.Fatalf("fatal response retried: %d hits", hits.Load())
			}
		})
	}
}

// TestHTTPOracleCancelDuringBackoff verifies the caller's context interrupts
// the retry/backoff sleep: with a server that always answers 503 and a long
// backoff, cancellation must return promptly instead of sleeping out the
// schedule.
func TestHTTPOracleCancelDuringBackoff(t *testing.T) {
	var hits atomic.Int64
	srv := flakyServer(t, &hits, func(_ int64, w http.ResponseWriter) bool {
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
		return true
	})
	o := llm.Chain(llm.NewHTTPOracle(srv.URL), resilience.NewRetry(llm.RetryPolicy{MaxAttempts: 6, BaseBackoff: time.Hour}, nil, 0))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := o.GenerateTemplate(ctx, llm.GenerateRequest{Schema: datagen.TPCH(1, 0.01).Schema})
		done <- err
	}()
	for hits.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled completion must return an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not interrupt backoff sleep")
	}
	if hits.Load() != 1 {
		t.Fatalf("expected no retries after cancellation, got %d hits", hits.Load())
	}
}

// TestHTTPOracleHonorsRetryAfter is the regression test for the Retry-After
// fix: a 429 carrying "Retry-After: 7" must make the retry layer wait
// exactly the server-requested 7 seconds instead of its own 1-second
// exponential step.
func TestHTTPOracleHonorsRetryAfter(t *testing.T) {
	var hits atomic.Int64
	srv := flakyServer(t, &hits, func(hit int64, w http.ResponseWriter) bool {
		if hit == 1 {
			w.Header().Set("Retry-After", "7")
			http.Error(w, "rate limited", http.StatusTooManyRequests)
			return true
		}
		return false
	})
	clock := llm.NewFakeClock()
	o := llm.Chain(llm.NewHTTPOracle(srv.URL), resilience.NewRetry(llm.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Second}, clock, 0))
	sql, err := o.FixExecution(context.Background(), "SELECT 1", "syntax error",
		llm.GenerateRequest{Schema: datagen.TPCH(1, 0.01).Schema})
	if err != nil {
		t.Fatal(err)
	}
	if sql != "SELECT 1 FROM t" || hits.Load() != 2 {
		t.Fatalf("sql=%q hits=%d", sql, hits.Load())
	}
	sleeps := clock.Sleeps()
	if len(sleeps) != 1 || sleeps[0] != 7*time.Second {
		t.Fatalf("backoff ignored Retry-After, slept %v (want [7s])", sleeps)
	}
}

// TestHTTPOracleRetryAfterCappedByMaxBackoff verifies MaxBackoff bounds even
// server-requested waits, so a hostile/misconfigured endpoint cannot park the
// pipeline for an hour.
func TestHTTPOracleRetryAfterCappedByMaxBackoff(t *testing.T) {
	var hits atomic.Int64
	srv := flakyServer(t, &hits, func(hit int64, w http.ResponseWriter) bool {
		if hit == 1 {
			w.Header().Set("Retry-After", "3600")
			http.Error(w, "rate limited", http.StatusServiceUnavailable)
			return true
		}
		return false
	})
	clock := llm.NewFakeClock()
	o := llm.Chain(llm.NewHTTPOracle(srv.URL),
		resilience.NewRetry(llm.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Second, MaxBackoff: 30 * time.Second}, clock, 0))
	if _, err := o.RefineTemplate(context.Background(), refineReq()); err != nil {
		t.Fatal(err)
	}
	sleeps := clock.Sleeps()
	if len(sleeps) != 1 || sleeps[0] != 30*time.Second {
		t.Fatalf("Retry-After not capped by MaxBackoff: slept %v (want [30s])", sleeps)
	}
}
