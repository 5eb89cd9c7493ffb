package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sqlbarber/internal/llm"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/spec"
)

// callLog collects the wall time of every oracle call made through one job's
// oracle and all of its forks.
type callLog struct {
	mu   sync.Mutex
	durs []time.Duration
}

func (l *callLog) add(d time.Duration) {
	l.mu.Lock()
	l.durs = append(l.durs, d)
	l.mu.Unlock()
}

// snapshot returns the recorded call times in ascending order.
func (l *callLog) snapshot() []time.Duration {
	l.mu.Lock()
	out := append([]time.Duration(nil), l.durs...)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// latency is the round trip the oracle wrapper adds to each call: base on
// most calls and slow on one call in slowEvery. The zero value adds nothing.
type latency struct {
	base, slow time.Duration
	slowEvery  uint64
}

// benchOracle wraps a simulated LLM so the benchmark can see inside the
// oracle layer without touching it: every call is timed into a callLog,
// opens an "llm:<kind>" span on the caller's obs sink, and optionally sleeps
// to model an API round trip. Which call is slow is a pure function of (job
// seed, fork stream, call ordinal), so a job's schedule of waits is the same
// on every run and at any worker count.
type benchOracle struct {
	inner   llm.Oracle
	ledger  *llm.Ledger
	lat     latency
	seed    int64
	stream  int64
	ordinal atomic.Uint64
	log     *callLog
}

var (
	_ llm.Oracle   = (*benchOracle)(nil)
	_ llm.Forkable = (*benchOracle)(nil)
	_ llm.Metered  = (*benchOracle)(nil)
)

// newBenchOracle wraps a fresh simulated LLM seeded with the job seed.
func newBenchOracle(seed int64, lat latency, log *callLog) *benchOracle {
	sim := llm.NewSim(llm.SimOptions{Seed: seed})
	return &benchOracle{inner: sim, ledger: sim.Ledger(), lat: lat, seed: seed, stream: -1, log: log}
}

// Ledger implements llm.Metered by delegation, so the pipeline binds the
// simulated LLM's own token counters.
func (o *benchOracle) Ledger() *llm.Ledger { return o.ledger }

// Fork implements llm.Forkable: the child wraps the simulated LLM's own fork
// and shares this oracle's call log.
func (o *benchOracle) Fork(stream int64) llm.Oracle {
	return &benchOracle{
		inner:  o.inner.(llm.Forkable).Fork(stream),
		ledger: o.ledger,
		lat:    o.lat,
		seed:   o.seed,
		stream: stream,
		log:    o.log,
	}
}

// begin opens the call's span and waits out its modelled round trip; the
// returned function records the call's total time and closes the span.
func (o *benchOracle) begin(ctx context.Context, kind string) (context.Context, func()) {
	ctx, sp := obs.StartSpan(ctx, "llm:"+kind)
	start := time.Now()
	if d := o.delay(o.ordinal.Add(1)); d > 0 {
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
		case <-t.C:
		}
	}
	return ctx, func() {
		o.log.add(time.Since(start))
		sp.End()
	}
}

// delay is the modelled round trip of the n-th call on this oracle.
func (o *benchOracle) delay(n uint64) time.Duration {
	if o.lat.slowEvery > 0 && mix64(mix64(mix64(uint64(o.seed))^uint64(o.stream))^n)%o.lat.slowEvery == 0 {
		return o.lat.slow
	}
	return o.lat.base
}

// mix64 is the SplitMix64 finalizer: a cheap, well-spread hash of x.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (o *benchOracle) GenerateTemplate(ctx context.Context, req llm.GenerateRequest) (string, error) {
	ctx, end := o.begin(ctx, "generate")
	defer end()
	return o.inner.GenerateTemplate(ctx, req)
}

func (o *benchOracle) ValidateSemantics(ctx context.Context, templateSQL string, s spec.Spec) (bool, []string, error) {
	ctx, end := o.begin(ctx, "judge")
	defer end()
	return o.inner.ValidateSemantics(ctx, templateSQL, s)
}

func (o *benchOracle) FixSemantics(ctx context.Context, templateSQL string, s spec.Spec, violations []string, req llm.GenerateRequest) (string, error) {
	ctx, end := o.begin(ctx, "fix_semantics")
	defer end()
	return o.inner.FixSemantics(ctx, templateSQL, s, violations, req)
}

func (o *benchOracle) FixExecution(ctx context.Context, templateSQL string, dbmsError string, req llm.GenerateRequest) (string, error) {
	ctx, end := o.begin(ctx, "fix_execution")
	defer end()
	return o.inner.FixExecution(ctx, templateSQL, dbmsError, req)
}

func (o *benchOracle) RefineTemplate(ctx context.Context, req llm.RefineRequest) (string, error) {
	ctx, end := o.begin(ctx, "refine")
	defer end()
	return o.inner.RefineTemplate(ctx, req)
}
