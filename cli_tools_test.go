package sqlbarber

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildTool compiles one of the repo's commands into dir and returns the
// binary path. Kept separate from the helpers in cli_integration_test.go so
// each file stays self-contained.
func buildTool(t *testing.T, dir, name, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// TestCLIReplayDetectsTamperedCosts is the negative half of the replay
// contract: cli_integration_test.go proves a faithful workload replays
// clean, this proves a corrupted annotation is caught — replay must exit 1
// and report the drift, because a verifier that cannot fail is no verifier.
func TestCLIReplayDetectsTamperedCosts(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	dir := t.TempDir()
	gen := buildTool(t, dir, "sqlbarber", "./cmd/sqlbarber")
	replay := buildTool(t, dir, "replay", "./cmd/replay")

	workloadFile := filepath.Join(dir, "w.sql")
	cmd := exec.Command(gen,
		"-dataset", "tpch", "-sf", "0.1", "-seed", "11",
		"-queries", "20", "-intervals", "3", "-range", "600",
		"-out", workloadFile)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("sqlbarber: %v\n%s", err, out)
	}

	// Corrupt the first cost annotation: a recorded cost of 999999 cannot
	// match anything the sf=0.1 dataset measures.
	data, err := os.ReadFile(workloadFile)
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`cardinality=\d+\.\d+`)
	tampered := re.ReplaceAll(data, []byte("cardinality=999999.00"))
	if bytes.Equal(tampered, data) {
		t.Fatalf("no cost annotation found to tamper:\n%.300s", data)
	}
	if err := os.WriteFile(workloadFile, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := exec.Command(replay,
		"-dataset", "tpch", "-sf", "0.1", "-seed", "11",
		"-cost", "cardinality", "-in", workloadFile).CombinedOutput()
	if err == nil {
		t.Fatalf("replay accepted a tampered workload:\n%s", out)
	}
	exitErr, ok := err.(*exec.ExitError)
	if !ok || exitErr.ExitCode() != 1 {
		t.Fatalf("want exit code 1, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "cost drift: recorded 999999.00") {
		t.Fatalf("drift report missing recorded value:\n%s", out)
	}
	if !strings.Contains(string(out), "replayed 20 queries") {
		t.Fatalf("summary line missing:\n%s", out)
	}
}

// TestCLISQLShellSession drives sqlsh through a scripted stdin session —
// meta-commands, a query, an EXPLAIN, quit — and checks each response
// appears, in order, with exit code 0.
func TestCLISQLShellSession(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	dir := t.TempDir()
	sqlsh := buildTool(t, dir, "sqlsh", "./cmd/sqlsh")

	session := strings.Join([]string{
		`\tables`,
		`SELECT o_orderstatus, COUNT(*) FROM orders GROUP BY o_orderstatus;`,
		`EXPLAIN SELECT * FROM lineitem WHERE l_quantity > 40`,
		`SELECT nothing FROM nowhere;`,
		`\q`,
	}, "\n") + "\n"

	cmd := exec.Command(sqlsh, "-dataset", "tpch", "-sf", "0.1", "-seed", "3")
	cmd.Stdin = strings.NewReader(session)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("sqlsh session: %v\n%s", err, out)
	}
	text := string(out)
	// Each expected marker must appear after the previous one: banner,
	// table listing, query result, plan, and a recoverable error that does
	// not kill the session.
	pos := 0
	for _, want := range []string{
		"tables lists tables",
		"lineitem",
		"o_orderstatus",
		"rows,",
		"estimated cardinality:",
		"ERROR:",
	} {
		idx := strings.Index(text[pos:], want)
		if idx < 0 {
			t.Fatalf("output missing %q at position >= %d:\n%s", want, pos, text)
		}
		pos += idx
	}
}

// TestCLISQLShellSnapshotRoundTrip saves a generated dataset to a snapshot,
// reopens it with -load, and checks a query answers identically — the
// persistence path a team uses to pin the exact substrate a workload was
// generated against.
func TestCLISQLShellSnapshotRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	dir := t.TempDir()
	sqlsh := buildTool(t, dir, "sqlsh", "./cmd/sqlsh")
	snap := filepath.Join(dir, "tpch.snap")

	out, err := exec.Command(sqlsh,
		"-dataset", "tpch", "-sf", "0.1", "-seed", "5", "-save", snap).CombinedOutput()
	if err != nil {
		t.Fatalf("sqlsh -save: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "saved snapshot to") {
		t.Fatalf("save confirmation missing:\n%s", out)
	}

	query := "SELECT COUNT(*) FROM orders;\n\\q\n"
	run := func(args ...string) string {
		cmd := exec.Command(sqlsh, args...)
		cmd.Stdin = strings.NewReader(query)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("sqlsh %v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	fresh := run("-dataset", "tpch", "-sf", "0.1", "-seed", "5")
	loaded := run("-load", snap)

	countOf := func(text string) string {
		// The single result row is the line between the column header and
		// the "(N rows, ...)" trailer.
		for _, line := range strings.Split(text, "\n") {
			line = strings.TrimSpace(strings.TrimPrefix(line, ">"))
			if regexp.MustCompile(`^\d+$`).MatchString(line) {
				return line
			}
		}
		t.Fatalf("no count row in output:\n%s", text)
		return ""
	}
	if f, l := countOf(fresh), countOf(loaded); f != l {
		t.Fatalf("snapshot changed the data: fresh COUNT(*)=%s, loaded COUNT(*)=%s", f, l)
	}
}

// TestCLIDaemonDrainsOnSigterm exercises the daemon end-to-end as a process:
// start on an ephemeral port, submit a job over HTTP, send SIGTERM while it
// may still be running, and require a clean exit with the accepted job's
// artifact on disk — the "SIGTERM loses no accepted job" contract.
func TestCLIDaemonDrainsOnSigterm(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	dir := t.TempDir()
	daemon := buildTool(t, dir, "sqlbarberd", "./cmd/sqlbarberd")
	artifacts := filepath.Join(dir, "artifacts")

	cmd := exec.Command(daemon,
		"-addr", "127.0.0.1:0", "-workers", "1", "-queue", "4",
		"-artifacts", artifacts, "-drain-timeout", "2m")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting daemon: %v", err)
	}
	defer cmd.Process.Kill()

	// The first stderr line announces the bound address.
	sc := bufio.NewScanner(stderr)
	if !sc.Scan() {
		t.Fatalf("daemon produced no output: %v", sc.Err())
	}
	banner := sc.Text()
	m := regexp.MustCompile(`listening on (\S+)`).FindStringSubmatch(banner)
	if m == nil {
		t.Fatalf("cannot parse listen address from %q", banner)
	}
	base := "http://" + m[1]
	// Keep draining stderr so the daemon never blocks on a full pipe, and
	// collect it for the final assertions.
	logCh := make(chan string, 1)
	go func() {
		var rest bytes.Buffer
		for sc.Scan() {
			rest.WriteString(sc.Text())
			rest.WriteByte('\n')
		}
		logCh <- rest.String()
	}()

	body := `{"dataset":"tpch","scale_factor":0.05,"seed":9,"queries":12,"intervals":3,"range_hi":1200}`
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("submitting job: %v", err)
	}
	var submitted struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || submitted.ID == "" {
		t.Fatalf("submit: status %d, id %q", resp.StatusCode, submitted.ID)
	}

	// SIGTERM immediately: the job may be queued or mid-run; either way the
	// drain must finish it before the process exits. Wait for stderr EOF
	// (the process exiting closes the pipe's write side) before reaping
	// with Wait — Wait closes the read side, and calling it while the
	// scanner goroutine still reads would race it out of the final lines.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signalling daemon: %v", err)
	}
	var log string
	select {
	case log = <-logCh:
	case <-time.After(120 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited uncleanly: %v\nstderr:\n%s", err, log)
	}
	if !strings.Contains(log, "drained; exiting") {
		t.Fatalf("drain completion line missing:\n%s", log)
	}
	artifact := filepath.Join(artifacts, submitted.ID+".sql")
	data, err := os.ReadFile(artifact)
	if err != nil {
		t.Fatalf("accepted job's artifact missing after drain: %v\nstderr:\n%s", err, log)
	}
	if !strings.Contains(string(data), "-- template=") {
		t.Fatalf("artifact has no annotations:\n%.200s", data)
	}
}

// TestCLIRejectsUnknownCostKind pins -cost parsing in both binaries that
// take it: an unrecognised name must fail before any dataset is opened
// rather than silently run cardinality. plan_cost is the spelling a
// workload file's annotations use, so it is the likely mistake. The
// -llm-policy grammar fails just as early: a hedge key, which the grammar
// does not have, is reported ahead of the unknown dataset. cmd/benchmarks
// runs only the paper's experiments: a retired layer-smoke name exits 2
// and a retired flag fails flag parsing.
func TestCLIRejectsUnknownCostKind(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	dir := t.TempDir()
	gen := buildTool(t, dir, "sqlbarber", "./cmd/sqlbarber")
	replay := buildTool(t, dir, "replay", "./cmd/replay")
	benchmarks := buildTool(t, dir, "benchmarks", "./cmd/benchmarks")
	workloadFile := filepath.Join(dir, "w.sql")
	if err := os.WriteFile(workloadFile, []byte("-- template=1 cardinality=5.00\nSELECT r_regionkey FROM region;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const costKinds = "cardinality, plancost, or rows"
	for _, tc := range []struct {
		name string
		cmd  *exec.Cmd
		code int
		want string
	}{
		{"sqlbarber -cost plan_cost", exec.Command(gen, "-cost", "plan_cost",
			"-dataset", "tpch", "-sf", "0.01", "-queries", "4", "-intervals", "2", "-range", "100"), 1, costKinds},
		{"replay -cost bogus", exec.Command(replay, "-cost", "bogus",
			"-dataset", "tpch", "-sf", "0.01", "-tol", "1e12", "-in", workloadFile), 1, costKinds},
		{"sqlbarber -llm-policy hedge=500ms", exec.Command(gen, "-llm-policy", "hedge=500ms",
			"-dataset", "oracle11g"), 1, `unknown key "hedge"`},
		{"benchmarks -exp probe", exec.Command(benchmarks, "-exp", "probe"), 2, `unknown experiment "probe"`},
		{"benchmarks -probejson=x", exec.Command(benchmarks, "-probejson=x"), 2, "flag provided but not defined: -probejson"},
	} {
		out, err := tc.cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != tc.code {
			t.Errorf("%s: exit = %v, want exit status %d\n%s", tc.name, err, tc.code, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%s: error does not contain %q:\n%s", tc.name, tc.want, out)
		}
	}
}
