#!/usr/bin/env bash
# check.sh is the repository's verification entrypoint. It chains, in order:
#
#   1. go vet ./...          — the standard toolchain analyzer
#   2. barbervet ./...       — SQLBarber's own repo linter (cmd/barbervet):
#                              unseeded math/rand in internal/, stdout prints
#                              in library code, mutex copies, discarded
#                              engine.DB errors, context/goroutine discipline
#   3. no Deprecated: in product code
#                            — fails if any non-test .go file outside bench/
#                              carries a "Deprecated:" marker, so a new
#                              compatibility shim has to be argued for instead
#                              of accumulating
#   4. go test -race -shuffle=on ./...
#                            — the full suite under the race detector with
#                              shuffled test order, so determinism cannot hide
#                              behind accidental ordering
#   5. GOMAXPROCS=2 go test -race ./...
#                            — a second pass pinned to two OS threads, which
#                              changes goroutine interleavings enough to shake
#                              out scheduling-dependent results the default
#                              pass can miss
#   6. go test -fuzz (fuzz smokes)
#                            — 10-second native-fuzzing smokes over eleven
#                              targets. FuzzParse checks the render ∘ parse
#                              round-trip fixpoint on arbitrary input, and
#                              FuzzPlaceholderRewrite checks that placeholder
#                              substitution never corrupts adversarial
#                              neighbouring string literals (sqlparser; at
#                              ~25k execs/sec each explores ~250k mutated
#                              inputs per run beyond the seed corpus).
#                              FuzzForestDifferential checks that the flat
#                              random forest predicts exactly what the naive
#                              pointer oracle does on arbitrary corpora (rf),
#                              and FuzzSourceMatchesMathRand checks that
#                              prand.Source reproduces math/rand draw for draw
#                              for arbitrary seeds and stream lengths (prand).
#                              FuzzParseResiliencePolicy checks that an
#                              accepted -llm-policy string yields a policy
#                              that re-validates with only finite, in-range
#                              values (pipeline), and FuzzJobRequest checks
#                              that a daemon job request normalize accepts
#                              has a target placing exactly its query count
#                              over finite intervals (server). FuzzLoad checks
#                              that a snapshot load never panics and that a
#                              loaded snapshot re-saves to a fixpoint, and
#                              FuzzAnalyzeDifferential checks that ANALYZE's
#                              sorted single pass gives exactly the statistics
#                              of the map-counting reference on arbitrary int,
#                              float and string columns (storage), and
#                              FuzzExecutorDifferential checks that the
#                              compiled executor returns the rows of the
#                              brute-force AST-interpreting reference, and
#                              that a measured probe (Program.Probe) returns
#                              Run's RowsTouched and error, on generated
#                              join, GROUP BY and subquery queries (exec), and FuzzPoolMatchesReference checks
#                              that workload.Pool assembles the workload, in
#                              order, and the exact distance of the
#                              bin-then-dedupe reference selection on
#                              arbitrary query lists with repeats and
#                              out-of-range costs (workload), and
#                              FuzzValidateAgreesWithPrepare checks that a
#                              template validates exactly when Prepare accepts
#                              it, with Prepare's message, on the TPC-H and
#                              IMDB schemas (engine)
#   7. scripts/covergate.sh  — per-package statement-coverage floors over
#                              internal/, from scripts/coverage_baseline.txt.
#                              Floors sit ~5 points below measured coverage,
#                              so routine churn passes but deleting tests or
#                              landing a large untested surface fails
#   8. go test -bench BenchmarkObsOverhead -benchtime 1x ./internal/pipeline
#                            — the observability overhead gate: runs the
#                              pipeline with and without a live collector and
#                              fails if collector CPU overhead exceeds 3%. The
#                              gate measures process CPU time (not wall clock)
#                              and takes the minimum over 3-15 alternating
#                              paired rounds with the GC paused, but
#                              process-lifetime placement bias (CPU affinity,
#                              NUMA) on busy shared machines can still skew
#                              one process, so the step retries in a fresh
#                              process up to 3 times; a real regression fails
#                              all attempts. Byte identity with the collector
#                              on and off is gated by TestParallelByteIdentical
#                              in steps 4-5
#   9. go test -bench BenchmarkPreparedVsReparse -benchtime 1x ./internal/engine
#                            — the prepared-probe speed gate: costs the same
#                              deterministic probe schedules through
#                              Prepared.Cost and through the re-parse path
#                              (Instantiate + DB.Cost) at 1/2/8 goroutines,
#                              failing unless compiled estimates beat
#                              re-parsing at every level and session-executed
#                              RowsProcessed probes beat it at every level and
#                              by 2x at 8 goroutines. Cost parity and counter
#                              movement are gated by the engine tests in
#                              steps 4-5. Timing-sensitive, so it gets the
#                              same 3-attempt fresh-process retry
#  10. go test -bench BenchmarkForestVsReference -benchtime 1x ./internal/rf
#                            — the random-forest speed gate: fits and probes
#                              the flat engine against the naive pointer
#                              oracle (reference_test.go) on a fixed 3000x6
#                              corpus, failing if the flat engine falls below
#                              2x fit / 3x batched-predict speed at 8
#                              goroutines. Bit-equality of the two engines,
#                              batched-vs-point parity and equal rng
#                              consumption are gated by
#                              TestDifferentialFlatVsReference in steps 4-5.
#                              Timing-sensitive, so it gets the same 3-attempt
#                              fresh-process retry
#  11. go test -bench BenchmarkAblation -benchtime 1x
#                            — runs the three design-choice ablation
#                              benchmarks of the root package once each
#                              (LHS, history-aware refinement, closeness
#                              weighting; five seeds per variant), so a
#                              switch that stops running fails here, and
#                              prints the metric lines EXPERIMENTS.md's
#                              "Design-choice ablations" table records.
#                              Each variant fails if its mean distance or
#                              secondary metric exceeds its recorded bound
#                              (the runs are deterministic, so the bounds
#                              are exact). `go test ./...` only compiles
#                              benchmarks
#  12. go test -bench BenchmarkClaims -benchtime 1x
#                            — the paper-claim gate: every quick-scale
#                              Figure 5 and 6 panel, SQLBarber only, at
#                              seeds 1-20 (480 runs). Fails if more panels
#                              stop short of distance 0, or the median DBMS
#                              evaluations per seed are higher, than the
#                              bounds in bench_test.go. Deterministic, so
#                              the bounds are exact; they only tighten
#  13. go vet . && go test . in bench/
#                            — the end-to-end benchmark is a module of its
#                              own, outside ./..., built against this
#                              repository through a replace directive. This
#                              step vets and tests it offline with the
#                              environment bench/run.sh sets (module mode,
#                              no proxy, no workspace, caches under
#                              .bench_build/), so a product API change that
#                              breaks the benchmark fails here (~16 s)
#
# Run it from anywhere; it changes to the repo root first. Any failure stops
# the chain with a non-zero exit.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet ./... =="
go vet ./...

echo "== barbervet ./... =="
go run ./cmd/barbervet ./...

echo "== no Deprecated: in product code =="
deprecated=$(grep -rl --include='*.go' --exclude='*_test.go' 'Deprecated:' . | grep -v '^\./bench/' || true)
if [ -n "${deprecated}" ]; then
  echo "non-test Go files outside bench/ carry Deprecated: markers:" >&2
  echo "${deprecated}" >&2
  exit 1
fi

echo "== go test -race -shuffle=on ./... =="
go test -race -shuffle=on ./...

echo "== GOMAXPROCS=2 go test -race ./... =="
GOMAXPROCS=2 go test -race ./...

echo "== go test -fuzz (fuzz smokes, 10s per target) =="
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/sqlparser
go test -run '^$' -fuzz '^FuzzPlaceholderRewrite$' -fuzztime 10s ./internal/sqlparser
go test -run '^$' -fuzz '^FuzzForestDifferential$' -fuzztime 10s ./internal/rf
go test -run '^$' -fuzz '^FuzzSourceMatchesMathRand$' -fuzztime 10s ./internal/prand
go test -run '^$' -fuzz '^FuzzParseResiliencePolicy$' -fuzztime 10s ./internal/pipeline
go test -run '^$' -fuzz '^FuzzJobRequest$' -fuzztime 10s ./internal/server
go test -run '^$' -fuzz '^FuzzLoad$' -fuzztime 10s ./internal/storage
go test -run '^$' -fuzz '^FuzzAnalyzeDifferential$' -fuzztime 10s ./internal/storage
go test -run '^$' -fuzz '^FuzzExecutorDifferential$' -fuzztime 10s ./internal/exec
go test -run '^$' -fuzz '^FuzzPoolMatchesReference$' -fuzztime 10s ./internal/workload
go test -run '^$' -fuzz '^FuzzValidateAgreesWithPrepare$' -fuzztime 10s ./internal/engine

echo "== scripts/covergate.sh (per-package coverage floors) =="
./scripts/covergate.sh

# Steps 8-10: the speed gates, in order. Each row is description|command;
# every gate gets up to 3 attempts, each in a fresh process, and fails the
# chain only when all 3 fail.
smokes=(
  "observability overhead gate|go test -run ^\$ -bench ^BenchmarkObsOverhead\$ -benchtime 1x ./internal/pipeline"
  "prepared-probe speed gate|go test -run ^\$ -bench ^BenchmarkPreparedVsReparse\$ -benchtime 1x ./internal/engine"
  "random-forest speed gate|go test -run ^\$ -bench ^BenchmarkForestVsReference\$ -benchtime 1x ./internal/rf"
)
for smoke in "${smokes[@]}"; do
  IFS='|' read -r desc cmd <<<"${smoke}"
  echo "== ${cmd} (${desc}) =="
  ok=0
  for attempt in 1 2 3; do
    # ${cmd} is deliberately unquoted: it is a list of words.
    if ${cmd}; then
      ok=1
      break
    fi
    echo "${desc} attempt ${attempt} failed; retrying in a fresh process" >&2
  done
  if [ "${ok}" -ne 1 ]; then
    echo "${desc} failed 3 consecutive attempts — treating as a real regression" >&2
    exit 1
  fi
done

echo "== go test -bench BenchmarkAblation -benchtime 1x (design-choice ablations) =="
go test -run '^$' -bench 'BenchmarkAblation' -benchtime 1x .

echo "== go test -bench BenchmarkClaims -benchtime 1x (paper-claim gate) =="
go test -run '^$' -bench 'BenchmarkClaims' -benchtime 1x .

echo "== go vet . && go test . in bench/ (the end-to-end benchmark module) =="
(
  build="$(pwd)/.bench_build"
  mkdir -p "${build}"
  export GOCACHE="${build}/gocache" GOPATH="${build}/gopath" XDG_CONFIG_HOME="${build}/config"
  export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
  go -C bench vet .
  go -C bench test .
)

echo "== all checks passed =="
