package llm

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sqlbarber/internal/datagen"
	"sqlbarber/internal/spec"
)

// stubServer mimics an OpenAI-compatible chat endpoint, answering with a
// canned completion and usage numbers.
func stubServer(t *testing.T, reply func(prompt string) string) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/chat/completions" {
			http.NotFound(w, r)
			return
		}
		if got := r.Header.Get("Authorization"); got != "Bearer test-key" {
			http.Error(w, `{"error":{"message":"bad key"}}`, http.StatusUnauthorized)
			return
		}
		var req chatRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		content := reply(req.Messages[0].Content)
		resp := map[string]any{
			"choices": []map[string]any{{"message": map[string]any{"role": "assistant", "content": content}}},
			"usage":   map[string]any{"prompt_tokens": 120, "completion_tokens": 40},
		}
		json.NewEncoder(w).Encode(resp)
	}))
}

func TestHTTPOracleGenerateTemplate(t *testing.T) {
	srv := stubServer(t, func(prompt string) string {
		if !strings.Contains(prompt, "schema summary") {
			t.Errorf("prompt missing schema context")
		}
		return "Sure! Here is the template:\n```sql\nSELECT o_orderkey FROM orders WHERE o_totalprice > {p_1}\n```\nHope this helps."
	})
	defer srv.Close()
	o := NewHTTPOracle(srv.URL, WithAPIKey("test-key"), WithModel("o3-mini"))
	db := datagen.TPCH(1, 0.05)
	paths := db.Schema.JoinPaths(0, 4)
	sql, err := o.GenerateTemplate(context.Background(), GenerateRequest{Schema: db.Schema, JoinPath: paths[0], Spec: spec.Spec{}})
	if err != nil {
		t.Fatal(err)
	}
	if sql != "SELECT o_orderkey FROM orders WHERE o_totalprice > {p_1}" {
		t.Fatalf("extracted SQL: %q", sql)
	}
	if o.Ledger().PromptTokens() != 120 || o.Ledger().CompletionTokens() != 40 {
		t.Fatalf("usage not recorded: %d/%d", o.Ledger().PromptTokens(), o.Ledger().CompletionTokens())
	}
}

func TestHTTPOracleValidateSemantics(t *testing.T) {
	srv := stubServer(t, func(prompt string) string {
		return `The template has too many joins. {"satisfied": false, "violations": ["expected 0 joins"]}`
	})
	defer srv.Close()
	o := NewHTTPOracle(srv.URL, WithAPIKey("test-key"))
	ok, viol, err := o.ValidateSemantics(context.Background(), "SELECT 1 FROM t", spec.Spec{NumJoins: spec.Int(0)})
	if err != nil {
		t.Fatal(err)
	}
	if ok || len(viol) != 1 || viol[0] != "expected 0 joins" {
		t.Fatalf("verdict: %v %v", ok, viol)
	}
}

func TestHTTPOracleUnstructuredJudgment(t *testing.T) {
	srv := stubServer(t, func(string) string { return "I think it is probably fine?" })
	defer srv.Close()
	o := NewHTTPOracle(srv.URL, WithAPIKey("test-key"))
	ok, viol, err := o.ValidateSemantics(context.Background(), "SELECT 1 FROM t", spec.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if ok || len(viol) == 0 {
		t.Fatal("unstructured judgment must degrade to unsatisfied with a reason")
	}
}

func TestExtractSQLVariants(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"```sql\nSELECT a FROM t\n```", "SELECT a FROM t"},
		{"```\nSELECT a FROM t\n```", "SELECT a FROM t"},
		{"Here you go: SELECT a FROM t;", "SELECT a FROM t"},
		{"select a from t", "select a from t"},
		{"no sql here", "no sql here"},
		{"prose\n```sql\nSELECT b FROM s WHERE x > {p_1}\n```\ntrailer", "SELECT b FROM s WHERE x > {p_1}"},
	}
	for _, c := range cases {
		if got := ExtractSQL(c.in); got != c.want {
			t.Errorf("ExtractSQL(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestHTTPOracleDrivesGeneratorEndToEnd wires the HTTP oracle (backed by a
// stub that answers with valid synthesized SQL) through Algorithm 1.
func TestHTTPOracleDrivesGeneratorEndToEnd(t *testing.T) {
	db := datagen.TPCH(6, 0.05)
	// The stub delegates to SimLLM's synthesizer so responses are realistic.
	sim := NewSim(Perfect(6))
	paths := db.Schema.JoinPaths(1, 4)
	s := spec.Spec{NumJoins: spec.Int(1), NumPredicates: spec.Int(2)}
	srv := stubServer(t, func(prompt string) string {
		sql, _ := sim.GenerateTemplate(context.Background(), GenerateRequest{Schema: db.Schema, JoinPath: paths[0], Spec: s})
		if strings.Contains(prompt, "Judge whether") {
			return `{"satisfied": true, "violations": []}`
		}
		return "```sql\n" + sql + "\n```"
	})
	defer srv.Close()
	o := NewHTTPOracle(srv.URL, WithAPIKey("test-key"))
	sql, err := o.GenerateTemplate(context.Background(), GenerateRequest{Schema: db.Schema, JoinPath: paths[0], Spec: s})
	if err != nil {
		t.Fatal(err)
	}
	ok, _, err := o.ValidateSemantics(context.Background(), sql, s)
	if err != nil || !ok {
		t.Fatalf("validate: %v %v", ok, err)
	}
}

// TestHTTPOracleCancelledContextNoRequest verifies an already-cancelled
// context never reaches the wire.
func TestHTTPOracleCancelledContextNoRequest(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	}))
	defer srv.Close()
	o := NewHTTPOracle(srv.URL)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := o.GenerateTemplate(ctx, GenerateRequest{Schema: datagen.TPCH(1, 0.01).Schema}); err == nil {
		t.Fatal("cancelled context must error")
	}
	if hits.Load() != 0 {
		t.Fatalf("cancelled context still sent %d requests", hits.Load())
	}
}

// TestSimLLMForkDeterministic verifies forked oracles are pure functions of
// their stream coordinate: the same stream yields the same bytes regardless
// of what other forks did in between, and distinct streams diverge.
func TestSimLLMForkDeterministic(t *testing.T) {
	ctx := context.Background()
	db := datagen.TPCH(1, 0.01)
	paths := db.Schema.JoinPaths(1, 4)
	req := GenerateRequest{Schema: db.Schema, JoinPath: paths[0], Spec: spec.Spec{}}

	run := func(streams []int64) map[int64]string {
		parent := NewSim(SimOptions{Seed: 7})
		out := map[int64]string{}
		for _, st := range streams {
			child := parent.Fork(st)
			sql, err := child.GenerateTemplate(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			out[st] = sql
		}
		return out
	}
	a := run([]int64{0, 1, 2})
	b := run([]int64{2, 0, 1}) // different visit order must not matter
	for st, sql := range a {
		if b[st] != sql {
			t.Fatalf("stream %d not order-independent:\n%q\nvs\n%q", st, sql, b[st])
		}
	}
	if a[0] == a[1] && a[1] == a[2] {
		t.Fatal("distinct streams produced identical templates; streams not independent")
	}
	// Forks share the parent's ledger.
	parent := NewSim(SimOptions{Seed: 7})
	child := parent.Fork(3)
	if _, err := child.GenerateTemplate(ctx, req); err != nil {
		t.Fatal(err)
	}
	if parent.Ledger().Calls() != 1 {
		t.Fatalf("fork must share ledger, parent saw %d calls", parent.Ledger().Calls())
	}
}

// TestParseRetryAfter covers the header's two RFC forms plus junk.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2025, 6, 1, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"5", 5 * time.Second},
		{" 12 ", 12 * time.Second},
		{"0", 0},
		{"-3", 0},
		{"garbage", 0},
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{now.Add(-time.Minute).Format(http.TimeFormat), 0},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.in, now); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
