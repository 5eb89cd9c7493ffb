// Command barbervet is SQLBarber's repo linter: a small go/ast-based
// analyzer enforcing project conventions that `go vet` does not cover.
//
// Checks (each with a stable code, mirroring internal/analyzer's style):
//
//	R001  unseeded math/rand: calls to the package-level math/rand functions
//	      (rand.Intn, rand.Float64, ...) inside internal/ packages. Every
//	      source of randomness must flow from a seeded rand.New so paper
//	      experiments stay reproducible.
//	R002  fmt.Print/Printf/Println outside cmd/ and tests: library code must
//	      return values or accept an io.Writer, never print to stdout.
//	R003  mutex copy: a function takes a same-package struct containing a
//	      sync.Mutex/RWMutex by value (receiver or parameter), which copies
//	      the lock.
//	R004  ignored engine.DB error: an error-returning DB method (Explain,
//	      Execute, Cost, SaveSnapshot) called as a bare statement, dropping
//	      the error. (Syntactic heuristic: flags these method names on any
//	      receiver; the repo reserves them for engine.DB.)
//	R005  cancellation discipline in internal/ packages: (a) calls to
//	      context.Background() or context.TODO() — library code must accept
//	      the caller's ctx so Ctrl-C reaches every DBMS and LLM call;
//	      (b) `go` statements in functions with no .Wait()/.Done() call in
//	      the body — goroutines must be joined (sync.WaitGroup or
//	      equivalent) so cancellation cannot leak them.
//	R006  observability bypass in instrumented packages (pipeline, generator,
//	      profiler, refine, search): direct time.Now()/time.Since() calls
//	      produce timings golden traces cannot fake, and importing
//	      sync/atomic means a counter is hand-rolled instead of using
//	      obs.Counter.
//	R007  exact float64 comparison in internal/plan and internal/analyzer:
//	      ==/!= on float64-valued expressions. Cost and selectivity
//	      arithmetic must compare through the shared epsilon helper
//	      (stats.ApproxEqual) — or an ordered operator — so estimator
//	      refactors that perturb the last ulp cannot silently flip
//	      equality-gated decisions. (Syntactic heuristic: an operand counts
//	      as float64 when it is a float literal, a name or struct field
//	      declared float64, a float64() conversion, a math.* call, or a
//	      same-package call with a single float64 result.)
//	R008  literal-slot write outside internal/sqlparser: a `.Value =` assignment
//	      on an AST literal in a file importing internal/sqlparser. Probe
//	      values must travel through the value environment, never shared-AST
//	      mutation.
//	R009  real-clock sleep in internal/llm: a direct time.Sleep or
//	      time.After call anywhere under internal/llm except clock.go.
//	      Retry backoff and injected fault stalls must flow through the
//	      llm.Clock abstraction so a FakeClock keeps oracle-stack tests
//	      deterministic and wall-clock free.
//	R010  allocation in recursion in internal/rf: a make() call inside a
//	      self-recursive function anywhere under internal/rf except
//	      reference.go. Tree growing recurses once per node, so per-node
//	      scratch must live on the tree builder and be reused across the
//	      recursion; reference.go is exempt because the naive pointer
//	      engine allocates per node on purpose (differential oracle and
//	      benchmark baseline).
//
// Usage:
//
//	barbervet ./...          # lint the whole module
//	barbervet internal/bo    # lint one directory
//
// Exits 1 when any finding is reported, 0 otherwise.
package main

import (
	"fmt"
	"os"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		args = []string{"./..."}
	}
	var dirs []string
	for _, a := range args {
		d, err := expandPattern(a)
		if err != nil {
			fmt.Fprintf(os.Stderr, "barbervet: %v\n", err)
			os.Exit(2)
		}
		dirs = append(dirs, d...)
	}
	var findings []Finding
	for _, dir := range dirs {
		fs, err := LintDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "barbervet: %s: %v\n", dir, err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
	for _, f := range findings {
		fmt.Printf("%s: %s %s\n", f.Pos, f.Code, f.Msg)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "barbervet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
