package sqlbarber

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// TestCLIRoundTrip builds the sqlbarber and replay binaries and drives the
// full user journey: generate a workload file, then replay it and verify
// every recorded cost still reproduces.
func TestCLIRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	dir := t.TempDir()
	build := func(name, pkg string) string {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
		return bin
	}
	gen := build("sqlbarber", "./cmd/sqlbarber")
	replay := build("replay", "./cmd/replay")

	workloadFile := filepath.Join(dir, "w.sql")
	cmd := exec.Command(gen,
		"-dataset", "tpch", "-sf", "0.1", "-seed", "7",
		"-queries", "30", "-intervals", "3", "-range", "600",
		"-out", workloadFile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("sqlbarber: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "wasserstein distance") {
		t.Fatalf("generation summary missing:\n%s", stderr.String())
	}
	data, err := os.ReadFile(workloadFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "-- template=") {
		t.Fatalf("workload file missing annotations:\n%.200s", data)
	}

	out, err := exec.Command(replay,
		"-dataset", "tpch", "-sf", "0.1", "-seed", "7",
		"-cost", "cardinality", "-in", workloadFile).CombinedOutput()
	if err != nil {
		t.Fatalf("replay: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "errors=0") || !strings.Contains(string(out), "cost drift > 1.0%: 0") {
		t.Fatalf("replay found drift:\n%s", out)
	}
}

// TestCLIJSONOutput checks the JSON manifest format end-to-end.
func TestCLIJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "sqlbarber")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/sqlbarber").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin,
		"-dataset", "tpch", "-sf", "0.1", "-queries", "12", "-intervals", "3",
		"-range", "500", "-format", "json").Output()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{`"cost_kind": "cardinality"`, `"queries"`, `"wasserstein_distance"`} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("JSON output missing %s:\n%.300s", want, out)
		}
	}
}

// TestCLIBarbervet builds the repo linter and checks both halves of its
// contract: the real tree passes clean (exit 0) and the badpkg fixture —
// which violates every rule — fails with a non-zero exit naming each code.
func TestCLIBarbervet(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "barbervet")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/barbervet").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	// The production tree must be clean.
	if out, err := exec.Command(bin, "./...").CombinedOutput(); err != nil {
		t.Fatalf("barbervet flags the real tree: %v\n%s", err, out)
	}

	// The known-bad fixture must fail with findings for every rule.
	fixture := filepath.Join("cmd", "barbervet", "testdata", "internal", "badpkg")
	out, err := exec.Command(bin, fixture).CombinedOutput()
	if err == nil {
		t.Fatalf("barbervet accepted the bad fixture:\n%s", out)
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("want exit code 1, got %v\n%s", err, out)
	}
	for _, code := range []string{"R001", "R002", "R003", "R004"} {
		if !strings.Contains(string(out), code) {
			t.Errorf("fixture output missing rule %s:\n%s", code, out)
		}
	}
}

// TestCLIHTTPOracleRetryBudget pins how many requests one failed oracle call
// costs the CLI against an endpoint that always answers 503: the -llm-policy
// retry budget exactly, and 3 without a policy. The HTTP oracle sends one
// request per call, so the policy's retry layer is the only one.
func TestCLIHTTPOracleRetryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	bin := buildTool(t, t.TempDir(), "sqlbarber", "./cmd/sqlbarber")
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	for _, tc := range []struct {
		policy []string
		want   int64
	}{
		{nil, 3},
		{[]string{"-llm-policy", "retry=4"}, 4},
		{[]string{"-llm-policy", "retry=1"}, 1},
	} {
		hits.Store(0)
		args := append([]string{"-dataset", "tpch", "-sf", "0.01", "-queries", "10", "-llm-url", srv.URL}, tc.policy...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil {
			t.Fatalf("%v: generation against an always-503 endpoint succeeded:\n%s", tc.policy, out)
		}
		if got := hits.Load(); got != tc.want {
			t.Errorf("%v: one failed call sent %d requests, want %d\n%s", tc.policy, got, tc.want, out)
		}
	}
}
