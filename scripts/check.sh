#!/usr/bin/env bash
# check.sh is the repository's verification entrypoint. It chains, in order:
#
#   1. go vet ./...          — the standard toolchain analyzer
#   2. barbervet ./...       — SQLBarber's own repo linter (cmd/barbervet):
#                              unseeded math/rand in internal/, stdout prints
#                              in library code, mutex copies, discarded
#                              engine.DB errors, context/goroutine discipline
#   3. go test -race -shuffle=on ./...
#                            — the full suite under the race detector with
#                              shuffled test order, so determinism cannot hide
#                              behind accidental ordering
#   4. GOMAXPROCS=2 go test -race ./...
#                            — a second pass pinned to two OS threads, which
#                              changes goroutine interleavings enough to shake
#                              out scheduling-dependent results the default
#                              pass can miss
#   5. go test -fuzz (sqlparser smoke)
#                            — 10-second native-fuzzing smokes over the two
#                              sqlparser fuzz targets: FuzzParse checks the
#                              render ∘ parse round-trip fixpoint on arbitrary
#                              input, FuzzPlaceholderRewrite checks that
#                              placeholder substitution never corrupts
#                              adversarial neighbouring string literals. At
#                              ~25k execs/sec per target this explores ~250k
#                              mutated inputs per run beyond the seed corpus
#   6. scripts/covergate.sh  — per-package statement-coverage floors over
#                              internal/, from scripts/coverage_baseline.txt.
#                              Floors sit ~5 points below measured coverage,
#                              so routine churn passes but deleting tests or
#                              landing a large untested surface fails
#   7. cmd/benchmarks -exp obs
#                            — the observability overhead smoke: runs the
#                              pipeline with and without a live collector,
#                              fails if the workloads differ byte-for-byte or
#                              collector CPU overhead exceeds 3%. The gate
#                              measures process CPU time (not wall clock) and
#                              takes the minimum over alternating paired
#                              rounds, but process-lifetime placement bias
#                              (CPU affinity, NUMA) on busy shared machines
#                              can still skew one process, so the step retries
#                              in a fresh process up to 3 times; a real
#                              regression fails all attempts
#   8. cmd/benchmarks -exp probe
#                            — the compiled-probing smoke: costs the same
#                              deterministic probe schedule through compiled
#                              parametric plans and through the re-plan
#                              baseline at 1/2/8 goroutines, failing on any
#                              cost divergence, probe-hash drift, counter
#                              disparity, or if compiled probing does not
#                              beat re-planning. Refreshes BENCH_probe.json.
#                              Timing-sensitive like the obs smoke, so it
#                              gets the same 3-attempt fresh-process retry
#   9. cmd/benchmarks -exp measured
#                            — the measured-probe smoke: executes the same
#                              deterministic probe schedule through per-session
#                              value-environment execution and through the
#                              serialized re-plan baseline at 1/2/8
#                              goroutines on a fixed small TPC-H instance,
#                              failing on any RowsProcessed divergence,
#                              probe-hash drift, counter disparity, or if the
#                              session arm falls below 2x baseline throughput
#                              at 8 goroutines. Refreshes BENCH_measured.json.
#                              Timing-sensitive, so it gets the same 3-attempt
#                              fresh-process retry
#  10. cmd/benchmarks -exp intervals
#                            — the static cost-interval smoke: runs the
#                              pipeline with the intervals stage on and off
#                              against a low-band plan-cost target, failing
#                              unless ≥20% of baseline profiling probes are
#                              eliminated, every pruned template survives a
#                              dense false-prune re-probe (zero observations
#                              in any wanted band), and 1/2/8-worker runs
#                              produce byte-identical workloads. Refreshes
#                              BENCH_intervals.json. Retried like the other
#                              smokes for consistency (its gates are all
#                              deterministic, so retries should never differ)
#  11. cmd/benchmarks -exp resilience
#                            — the oracle-resilience smoke: runs the pipeline
#                              through the retry/fault-injection middleware
#                              chain with a deterministic 20% fault schedule,
#                              failing unless the workload hash matches the
#                              fault-free baseline at 1/2/8 workers, and runs
#                              a cold-then-warm persistent prompt-cache pair,
#                              failing unless the warm rerun pays ≥30% fewer
#                              LLM calls while reproducing the same workload.
#                              Refreshes BENCH_resilience.json. Retried like
#                              the other smokes for consistency (its gates
#                              are deterministic)
#  12. cmd/benchmarks -exp surrogate
#                            — the surrogate-engine smoke: fits and probes the
#                              flat random-forest engine against the naive
#                              pointer reference on a fixed synthetic corpus
#                              at 1/2/8 goroutines, failing on any per-tree
#                              prediction divergence, batched-vs-point
#                              prediction mismatch, BO search-hash divergence
#                              between the two engines, or if the flat engine
#                              falls below 2x fit / 3x batched-predict speed
#                              at 8 goroutines. Refreshes BENCH_surrogate.json.
#                              Timing-sensitive, so it gets the same 3-attempt
#                              fresh-process retry
#
# Run it from anywhere; it changes to the repo root first. Any failure stops
# the chain with a non-zero exit.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet ./... =="
go vet ./...

echo "== barbervet ./... =="
go run ./cmd/barbervet ./...

echo "== go test -race -shuffle=on ./... =="
go test -race -shuffle=on ./...

echo "== GOMAXPROCS=2 go test -race ./... =="
GOMAXPROCS=2 go test -race ./...

echo "== go test -fuzz (sqlparser fuzz smoke, 10s per target) =="
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/sqlparser
go test -run '^$' -fuzz '^FuzzPlaceholderRewrite$' -fuzztime 10s ./internal/sqlparser

echo "== scripts/covergate.sh (per-package coverage floors) =="
./scripts/covergate.sh

# Steps 7-12: the benchmark smokes, in order. Each row is
# name|description|extra flags; every smoke gets up to 3 attempts, each in a
# fresh process, and fails the chain only when all 3 fail.
smokes=(
  "obs|observability overhead smoke|"
  "probe|compiled-probing smoke|-probejson BENCH_probe.json"
  "measured|measured-probe smoke|-measuredjson BENCH_measured.json"
  "intervals|static cost-interval smoke|-intervalsjson BENCH_intervals.json"
  "resilience|oracle resilience smoke|-resiliencejson BENCH_resilience.json"
  "surrogate|surrogate-engine smoke|-surrogatejson BENCH_surrogate.json"
)
for smoke in "${smokes[@]}"; do
  IFS='|' read -r name desc flags <<<"${smoke}"
  echo "== cmd/benchmarks -exp ${name} (${desc}) =="
  ok=0
  for attempt in 1 2 3; do
    # ${flags} is deliberately unquoted: it is a list of words.
    if go run ./cmd/benchmarks -exp "${name}" ${flags}; then
      ok=1
      break
    fi
    echo "${name} smoke attempt ${attempt} failed; retrying in a fresh process" >&2
  done
  if [ "${ok}" -ne 1 ]; then
    echo "${name} smoke failed 3 consecutive attempts — treating as a real regression" >&2
    exit 1
  fi
done

echo "== all checks passed =="
