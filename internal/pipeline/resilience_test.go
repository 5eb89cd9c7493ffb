package pipeline

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/stats"
)

// TestResilienceOptionValidation asserts WithResilience and
// WithOracleCacheDir reject bad configurations with their coded errors,
// matchable via errors.Is like the rest of the option family.
func TestResilienceOptionValidation(t *testing.T) {
	db := engine.OpenTPCH(1, 0.02)
	oracle := llm.NewSim(llm.SimOptions{Seed: 1})
	specs := smallSpecs()
	target := stats.Uniform(0, 100, 2, 4)

	blocked := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		opt  Option
		err  error
	}{
		{"negative retry", WithResilience(ResiliencePolicy{Retry: llm.RetryPolicy{MaxAttempts: -1}}), ErrBadResilience},
		{"jitter > 1", WithResilience(ResiliencePolicy{Retry: llm.RetryPolicy{MaxAttempts: 2, Jitter: 1.5}}), ErrBadResilience},
		{"fault rate > 1", WithResilience(ResiliencePolicy{FaultRate: 1.5, Retry: llm.RetryPolicy{MaxAttempts: 9}}), ErrBadResilience},
		{"faults without retry budget", WithResilience(ResiliencePolicy{FaultRate: 0.2}), ErrBadResilience},
		{"faults equal to retry budget", WithResilience(ResiliencePolicy{FaultRate: 0.2, FaultAttempts: 3, Retry: llm.RetryPolicy{MaxAttempts: 3}}), ErrBadResilience},
		{"jitter NaN", WithResilience(ResiliencePolicy{Retry: llm.RetryPolicy{MaxAttempts: 2, Jitter: math.NaN()}}), ErrBadResilience},
		{"fault NaN", WithResilience(ResiliencePolicy{FaultRate: math.NaN(), Retry: llm.RetryPolicy{MaxAttempts: 9}}), ErrBadResilience},
		{"negative backoff", WithResilience(ResiliencePolicy{Retry: llm.RetryPolicy{MaxAttempts: 2, BaseBackoff: -time.Second}}), ErrBadResilience},
		{"negative max backoff", WithResilience(ResiliencePolicy{Retry: llm.RetryPolicy{MaxAttempts: 2, MaxBackoff: -time.Second}}), ErrBadResilience},
		{"empty cache dir", WithOracleCacheDir("  "), ErrBadCacheDir},
		{"cache dir is a file", WithOracleCacheDir(filepath.Join(blocked, "sub")), ErrBadCacheDir},
	}
	for _, tc := range cases {
		if _, err := New(db, oracle, specs, target, tc.opt); !errors.Is(err, tc.err) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.err)
		}
	}

	// A recoverable fault policy and a writable cache dir both pass.
	ok := []Option{
		WithResilience(ResiliencePolicy{FaultRate: 0.2, FaultAttempts: 2, Retry: llm.RetryPolicy{MaxAttempts: 3}}),
		WithOracleCacheDir(filepath.Join(t.TempDir(), "prompts")),
	}
	if _, err := New(db, oracle, specs, target, ok...); err != nil {
		t.Fatalf("valid resilience options rejected: %v", err)
	}
}

// TestParseResiliencePolicy pins the -llm-policy grammar.
func TestParseResiliencePolicy(t *testing.T) {
	p, err := ParseResiliencePolicy("retry=4, backoff=100ms, maxbackoff=2s, jitter=0.3, fault=0.2, faultattempts=2, faultseed=17")
	if err != nil {
		t.Fatal(err)
	}
	want := ResiliencePolicy{
		Retry:         llm.RetryPolicy{MaxAttempts: 4, BaseBackoff: 100 * time.Millisecond, MaxBackoff: 2 * time.Second, Jitter: 0.3},
		FaultRate:     0.2,
		FaultAttempts: 2,
		FaultSeed:     17,
	}
	if p != want {
		t.Fatalf("parsed %+v\nwant %+v", p, want)
	}

	for _, bad := range []string{
		"",
		"retry",
		"retry=x",
		"warp=9",
		"backoff=100",       // duration without unit
		"fault=0.5",         // no retry budget to recover with
		"retry=2,fault=0.5", // budget not above the default fault window
		"retry=4,jitter=2",  // out of range
		"retry=4,jitter=NaN",
		"rate=NaN",
		"rate=+Inf",
		"rate=-Inf",
		"retry=4,fault=NaN",
		"hedgepct=NaN",
		"backoff=-1s",
		"maxbackoff=-1s",
		"cooldown=-1s",
		// Hedge, breaker and concurrency keys are not in the grammar.
		"hedge=1ns",
		"breaker=5",
		"conc=8",
		oldFullPolicy,
	} {
		if _, err := ParseResiliencePolicy(bad); !errors.Is(err, ErrBadResilience) {
			t.Errorf("ParseResiliencePolicy(%q) = %v, want ErrBadResilience", bad, err)
		}
	}

	_, err = ParseResiliencePolicy("hedge=1ns")
	for _, key := range []string{"retry", "backoff", "maxbackoff", "jitter", "fault", "faultattempts", "faultseed"} {
		if !strings.Contains(err.Error(), key) {
			t.Errorf("unknown-key error %q does not name valid key %q", err, key)
		}
	}
}

// oldFullPolicy spells every retry key next to hedge, breaker, rate and
// concurrency keys the grammar does not have, so it must be rejected.
const oldFullPolicy = "retry=4,backoff=100ms,maxbackoff=2s,jitter=0.3,hedge=500ms,hedgepct=0.95,breaker=5,cooldown=30s,rate=2.5,burst=4,conc=8"

// TestOracleCacheWarmRunServesFromDisk is the cache-win contract at pipeline
// level: a second run over the same cache directory with the same seed must
// reproduce the workload byte for byte while consuming ZERO paid oracle
// calls — every prompt is served from disk.
func TestOracleCacheWarmRunServesFromDisk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "prompts")
	run := func() (string, int64) {
		db := engine.OpenTPCH(17, 0.05)
		sim := llm.NewSim(llm.SimOptions{Seed: 17})
		p, err := New(db, sim, smallSpecs(), stats.Uniform(0, 1200, 4, 40),
			WithSeed(17), WithOracleCacheDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return runSignature(res), sim.Ledger().Calls()
	}
	cold, coldCalls := run()
	if coldCalls == 0 {
		t.Fatal("cold run consumed no oracle calls; test is vacuous")
	}
	warm, warmCalls := run()
	if warm != cold {
		t.Fatalf("warm rerun diverged from cold run\n%s", firstDiff(cold, warm))
	}
	if warmCalls != 0 {
		t.Fatalf("warm rerun paid %d oracle calls, want 0 (all prompts cached)", warmCalls)
	}
}

// FuzzParseResiliencePolicy feeds arbitrary -llm-policy strings to the
// parser. Property: a rejected string reports ErrBadResilience, and an
// accepted one yields a policy that re-validates and holds only finite,
// in-range values.
func FuzzParseResiliencePolicy(f *testing.F) {
	for _, seed := range []string{
		oldFullPolicy,
		"retry=4,backoff=100ms,maxbackoff=2s,jitter=0.3",
		"retry=4,fault=0.2,faultattempts=2,faultseed=17",
		"retry=4,jitter=NaN",
		"rate=+Inf",
		"hedgepct=NaN",
		"backoff=-1s",
		"fault=NaN,retry=9",
		"",
		"warp=9",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseResiliencePolicy(s)
		if err != nil {
			if !errors.Is(err, ErrBadResilience) {
				t.Fatalf("ParseResiliencePolicy(%q) = %v, want ErrBadResilience", s, err)
			}
			return
		}
		if err := p.validate(); err != nil {
			t.Fatalf("accepted %q but the policy does not re-validate: %v", s, err)
		}
		inUnit := func(v float64) bool { return v >= 0 && v <= 1 }
		switch {
		case !inUnit(p.Retry.Jitter), !inUnit(p.FaultRate):
			t.Fatalf("accepted %q with a non-finite or out-of-range value: %+v", s, p)
		case p.Retry.MaxAttempts < 0 || p.Retry.BaseBackoff < 0 || p.Retry.MaxBackoff < 0 || p.FaultAttempts < 0:
			t.Fatalf("accepted %q with a negative value: %+v", s, p)
		}
	})
}
