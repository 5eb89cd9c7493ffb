package llm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sqlbarber/internal/obs"
	"sqlbarber/internal/spec"
)

// RetryPolicy configures transient-failure retries for the resilience.Retry
// middleware.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first call.
	// Zero or negative means "unset" (callers apply their own default).
	MaxAttempts int
	// BaseBackoff is the sleep before the second attempt, doubling on each
	// further retry. Zero disables backoff sleeps.
	BaseBackoff time.Duration
	// MaxBackoff caps the doubled backoff (and any server-requested
	// Retry-After wait). Zero means uncapped.
	MaxBackoff time.Duration
	// Jitter, in [0,1], adds a deterministic fraction of the computed
	// backoff drawn from a prand stream keyed by the call content and the
	// attempt index — spreading a thundering herd without losing
	// reproducibility.
	Jitter float64
}

// RateLimitError reports a throttling or server-unavailable response
// (HTTP 429/503 and friends). When the endpoint supplied a Retry-After
// header its parsed value is carried here so retry layers can honour the
// server's own pacing instead of blind exponential doubling.
type RateLimitError struct {
	// Status is the HTTP status code (429, 503, ...).
	Status int
	// RetryAfter is the server-requested wait, zero when absent.
	RetryAfter time.Duration
	// Body is a truncated response body for diagnostics.
	Body string
}

// Error implements error.
func (e *RateLimitError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("status %d (retry after %s): %s", e.Status, e.RetryAfter, e.Body)
	}
	return fmt.Sprintf("status %d: %s", e.Status, e.Body)
}

// Retryable marks rate-limit responses as transient.
func (e *RateLimitError) Retryable() bool { return true }

// parseRetryAfter parses a Retry-After header value: either delta-seconds or
// an HTTP-date. Absent, malformed or already-elapsed values yield zero.
func parseRetryAfter(v string, now time.Time) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// HTTPOracle implements Oracle against any OpenAI-compatible chat
// completions endpoint (the paper uses o3-mini through this exact protocol).
// It is the production counterpart of SimLLM: same prompts, same ledger,
// real model. The offline test suite exercises it against a local stub
// server; pointing the base URL at https://api.openai.com/v1 with a key
// makes the whole pipeline run on a hosted model.
//
// Each call sends exactly one request. Failures that may pass on their own
// (a transport error, HTTP 429 or 5xx) are returned retryable, everything
// else reports Retryable() == false; retrying is the job of the
// resilience.Retry middleware, which honours the Retry-After a
// RateLimitError carries.
type HTTPOracle struct {
	baseURL string
	apiKey  string
	model   string
	client  *http.Client
	ledger  Ledger
}

var (
	_ Oracle   = (*HTTPOracle)(nil)
	_ Forkable = (*HTTPOracle)(nil)
)

// Fork returns the oracle itself: HTTPOracle carries no mutable per-call
// state beyond its atomic ledger, so one value may serve any number of
// parallel tasks directly.
func (o *HTTPOracle) Fork(stream int64) Oracle { return o }

// HTTPOption configures an HTTPOracle at construction.
type HTTPOption func(*HTTPOracle)

// WithModel selects the chat model (default "o3-mini").
func WithModel(model string) HTTPOption {
	return func(o *HTTPOracle) {
		if model != "" {
			o.model = model
		}
	}
}

// WithAPIKey sets the bearer token sent with each request.
func WithAPIKey(key string) HTTPOption {
	return func(o *HTTPOracle) { o.apiKey = key }
}

// WithClient substitutes the HTTP client (timeouts, transports, proxies;
// default: 60s timeout).
func WithClient(c *http.Client) HTTPOption {
	return func(o *HTTPOracle) {
		if c != nil {
			o.client = c
		}
	}
}

// NewHTTPOracle creates a client for an OpenAI-compatible endpoint rooted at
// baseURL, e.g. "https://api.openai.com/v1".
func NewHTTPOracle(baseURL string, opts ...HTTPOption) *HTTPOracle {
	o := &HTTPOracle{
		baseURL: strings.TrimRight(baseURL, "/"),
		model:   "o3-mini",
		client:  &http.Client{Timeout: 60 * time.Second},
	}
	for _, opt := range opts {
		opt(o)
	}
	return o
}

// Ledger exposes the token/cost meter (counts are taken from API usage
// fields when present, approximated otherwise).
func (o *HTTPOracle) Ledger() *Ledger { return &o.ledger }

// Chat request/response wire types (OpenAI chat completions subset).
type chatRequest struct {
	Model    string        `json:"model"`
	Messages []chatMessage `json:"messages"`
}

type chatMessage struct {
	Role    string `json:"role"`
	Content string `json:"content"`
}

type chatResponse struct {
	Choices []struct {
		Message chatMessage `json:"message"`
	} `json:"choices"`
	Usage struct {
		PromptTokens     int `json:"prompt_tokens"`
		CompletionTokens int `json:"completion_tokens"`
	} `json:"usage"`
	Error *struct {
		Message string `json:"message"`
	} `json:"error"`
}

// permanentError marks a failure that retrying the same request cannot fix.
type permanentError struct{ err error }

func (e permanentError) Error() string   { return e.err.Error() }
func (e permanentError) Unwrap() error   { return e.err }
func (e permanentError) Retryable() bool { return false }

// complete sends one chat turn and returns the assistant text. The caller's
// context cancels the request; an already-cancelled context sends nothing.
func (o *HTTPOracle) complete(ctx context.Context, prompt string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", fmt.Errorf("llm: chat completion cancelled: %w", err)
	}
	text, err := o.send(ctx, prompt)
	if err != nil {
		return "", fmt.Errorf("llm: chat completion failed: %w", err)
	}
	return text, nil
}

func (o *HTTPOracle) send(ctx context.Context, prompt string) (string, error) {
	body, err := json.Marshal(chatRequest{
		Model:    o.model,
		Messages: []chatMessage{{Role: "user", Content: prompt}},
	})
	if err != nil {
		return "", permanentError{err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		o.baseURL+"/chat/completions", bytes.NewReader(body))
	if err != nil {
		return "", permanentError{err}
	}
	req.Header.Set("Content-Type", "application/json")
	if o.apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+o.apiKey)
	}
	resp, err := o.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
	if err != nil {
		return "", err
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
		return "", &RateLimitError{
			Status:     resp.StatusCode,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"), SystemClock.Now()),
			Body:       truncate(string(data), 200),
		}
	}
	if resp.StatusCode != http.StatusOK {
		return "", permanentError{fmt.Errorf("status %d: %s", resp.StatusCode, truncate(string(data), 200))}
	}
	var cr chatResponse
	if err := json.Unmarshal(data, &cr); err != nil {
		return "", permanentError{fmt.Errorf("decoding response: %w", err)}
	}
	if cr.Error != nil {
		return "", permanentError{fmt.Errorf("api error: %s", cr.Error.Message)}
	}
	if len(cr.Choices) == 0 {
		return "", permanentError{errors.New("empty choices")}
	}
	content := cr.Choices[0].Message.Content
	if cr.Usage.PromptTokens > 0 || cr.Usage.CompletionTokens > 0 {
		o.ledger.promptTokens.Add(int64(cr.Usage.PromptTokens))
		o.ledger.completionTokens.Add(int64(cr.Usage.CompletionTokens))
		o.ledger.calls.Add(1)
	} else {
		o.ledger.Record(prompt, content)
	}
	return content, nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// ExtractSQL pulls the SQL statement out of a model response, stripping
// markdown code fences and surrounding prose: the first fenced block wins,
// otherwise the first line starting with SELECT.
func ExtractSQL(response string) string {
	if i := strings.Index(response, "```"); i >= 0 {
		rest := response[i+3:]
		// Skip a language tag like ```sql
		if j := strings.IndexByte(rest, '\n'); j >= 0 && !strings.ContainsAny(rest[:j], " \t{}();") {
			rest = rest[j+1:]
		}
		if k := strings.Index(rest, "```"); k >= 0 {
			return strings.TrimSpace(rest[:k])
		}
		return strings.TrimSpace(rest)
	}
	upper := strings.ToUpper(response)
	if i := strings.Index(upper, "SELECT"); i >= 0 {
		return strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(response[i:]), ";"))
	}
	return strings.TrimSpace(response)
}

// GenerateTemplate prompts the model for a fresh template.
func (o *HTTPOracle) GenerateTemplate(ctx context.Context, req GenerateRequest) (string, error) {
	obs.FromContext(ctx).Count(obs.MLLMGenerateCalls, 1)
	resp, err := o.complete(ctx, buildGeneratePrompt(req))
	if err != nil {
		return "", err
	}
	return ExtractSQL(resp), nil
}

// validateJudgment is the structured verdict requested from the model.
type validateJudgment struct {
	Satisfied  bool     `json:"satisfied"`
	Violations []string `json:"violations"`
}

// ValidateSemantics asks the model to judge spec compliance, requesting a
// JSON verdict; unparseable verdicts degrade to "not satisfied" with the raw
// reasoning text as the violation.
func (o *HTTPOracle) ValidateSemantics(ctx context.Context, templateSQL string, s spec.Spec) (bool, []string, error) {
	obs.FromContext(ctx).Count(obs.MLLMJudgeCalls, 1)
	prompt := buildValidatePrompt(templateSQL, s.Describe()) +
		"\nAnswer with JSON only: {\"satisfied\": bool, \"violations\": [string]}\n"
	resp, err := o.complete(ctx, prompt)
	if err != nil {
		return false, nil, err
	}
	var v validateJudgment
	if jerr := json.Unmarshal([]byte(extractJSON(resp)), &v); jerr != nil {
		return false, []string{"judge response was not structured: " + truncate(resp, 200)}, nil
	}
	return v.Satisfied, v.Violations, nil
}

// extractJSON trims prose and code fences around a JSON object.
func extractJSON(s string) string {
	start := strings.IndexByte(s, '{')
	end := strings.LastIndexByte(s, '}')
	if start >= 0 && end > start {
		return s[start : end+1]
	}
	return s
}

// FixSemantics asks the model to rewrite the template against the reported
// violations.
func (o *HTTPOracle) FixSemantics(ctx context.Context, templateSQL string, s spec.Spec, violations []string, req GenerateRequest) (string, error) {
	obs.FromContext(ctx).Count(obs.MLLMFixSemanticsCalls, 1)
	resp, err := o.complete(ctx, buildFixSemanticsPrompt(templateSQL, s.Describe(), violations))
	if err != nil {
		return "", err
	}
	return ExtractSQL(resp), nil
}

// FixExecution asks the model to repair a DBMS error.
func (o *HTTPOracle) FixExecution(ctx context.Context, templateSQL string, dbmsError string, req GenerateRequest) (string, error) {
	obs.FromContext(ctx).Count(obs.MLLMFixExecutionCalls, 1)
	resp, err := o.complete(ctx, buildFixExecutionPrompt(templateSQL, dbmsError))
	if err != nil {
		return "", err
	}
	return ExtractSQL(resp), nil
}

// RefineTemplate asks the model for a cost-targeted template variant.
func (o *HTTPOracle) RefineTemplate(ctx context.Context, req RefineRequest) (string, error) {
	obs.FromContext(ctx).Count(obs.MLLMRefineCalls, 1)
	resp, err := o.complete(ctx, buildRefinePrompt(req))
	if err != nil {
		return "", err
	}
	return ExtractSQL(resp), nil
}
