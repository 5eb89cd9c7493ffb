// Package server is sqlbarberd's job service: an HTTP/JSON front end that
// accepts workload-generation requests, runs each as one pipeline.New(...).Run
// on a bounded worker pool, and exposes the job lifecycle — submit, status,
// cancel (mapped to context cancellation, so partial workloads survive),
// result download, and a live SSE progress stream teed off the job's obs
// events. Determinism carries across the service boundary: a job's artifact
// is a pure function of its request, byte-identical at any pool size.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/pipeline"
	"sqlbarber/internal/realworld"
	"sqlbarber/internal/spec"
	"sqlbarber/internal/stats"
)

// ErrBadJobRequest is the coded prefix of every request-validation failure;
// handlers map it to 400.
var ErrBadJobRequest = errors.New("server: invalid job request")

// JobRequest is the submit payload. Every field has a service-side default,
// so `{}` is a valid request; the zero seed means "seed 1" (documented, since
// JSON cannot distinguish absent from zero). The unexported fields hold the
// parsed forms filled in by normalize, so workers never re-parse.
type JobRequest struct {
	Dataset         string          `json:"dataset,omitempty"`          // tpch|imdb (default tpch)
	ScaleFactor     float64         `json:"scale_factor,omitempty"`     // (0,2] (default 0.05)
	Seed            int64           `json:"seed,omitempty"`             // default 1
	CostKind        string          `json:"cost_kind,omitempty"`        // cardinality|plancost|rows (default cardinality)
	Distribution    string          `json:"distribution,omitempty"`     // uniform|normal|snowset-card|snowset-cost|redset (default uniform)
	Queries         int             `json:"queries,omitempty"`          // default 100
	Intervals       int             `json:"intervals,omitempty"`        // default 8
	RangeHi         float64         `json:"range_hi,omitempty"`         // default 2500
	Specs           json.RawMessage `json:"specs,omitempty"`            // spec.ParseJSON payload (default: Redset-derived)
	Parallel        int             `json:"parallel,omitempty"`         // default 1; output is byte-identical at any value
	ProfileFraction float64         `json:"profile_fraction,omitempty"` // (0,1]; 0 keeps the pipeline default
	Format          string          `json:"format,omitempty"`           // sql|json (default sql)
	Resilience      string          `json:"resilience,omitempty"`       // pipeline.ParseResiliencePolicy grammar

	specs  []spec.Spec
	policy *pipeline.ResiliencePolicy
	kind   engine.CostKind
}

func badReq(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadJobRequest, fmt.Sprintf(format, args...))
}

// normalize applies defaults, validates every field, and fills the parsed
// forms. It must be called exactly once, at submit time, so a request that
// reaches the queue can only fail for runtime reasons.
func (r *JobRequest) normalize() error {
	if r.Dataset == "" {
		r.Dataset = "tpch"
	}
	r.Dataset = strings.ToLower(r.Dataset)
	if r.Dataset != "tpch" && r.Dataset != "imdb" {
		return badReq("unknown dataset %q (want tpch or imdb)", r.Dataset)
	}
	if r.ScaleFactor == 0 {
		r.ScaleFactor = 0.05
	}
	if r.ScaleFactor < 0 || r.ScaleFactor > 2 {
		return badReq("scale_factor %v out of range (0, 2]", r.ScaleFactor)
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.CostKind == "" {
		r.CostKind = "cardinality"
	}
	kind, err := engine.ParseCostKind(r.CostKind)
	if err != nil {
		return badReq("cost_kind: %v", err)
	}
	r.kind = kind
	if r.Distribution == "" {
		r.Distribution = "uniform"
	}
	r.Distribution = strings.ToLower(r.Distribution)
	switch r.Distribution {
	case "uniform", "normal", "snowset-card", "snowset-cost", "redset":
	default:
		return badReq("unknown distribution %q", r.Distribution)
	}
	if r.Queries == 0 {
		r.Queries = 100
	}
	if r.Queries < 1 || r.Queries > 10000 {
		return badReq("queries %d out of range [1, 10000]", r.Queries)
	}
	if r.Intervals == 0 {
		r.Intervals = 8
	}
	if r.Intervals < 1 || r.Intervals > 500 {
		return badReq("intervals %d out of range [1, 500]", r.Intervals)
	}
	if r.RangeHi == 0 {
		r.RangeHi = 2500
	}
	if r.RangeHi < 0 {
		return badReq("range_hi %v must be positive", r.RangeHi)
	}
	if r.Parallel == 0 {
		r.Parallel = 1
	}
	if r.Parallel < 1 || r.Parallel > 64 {
		return badReq("parallel %d out of range [1, 64]", r.Parallel)
	}
	if r.ProfileFraction < 0 || r.ProfileFraction > 1 {
		return badReq("profile_fraction %v out of range [0, 1]", r.ProfileFraction)
	}
	if r.Format == "" {
		r.Format = "sql"
	}
	r.Format = strings.ToLower(r.Format)
	if r.Format != "sql" && r.Format != "json" {
		return badReq("unknown format %q (want sql or json)", r.Format)
	}
	if len(r.Specs) > 0 {
		specs, err := spec.ParseJSON(r.Specs)
		if err != nil {
			return badReq("parsing specs: %v", err)
		}
		r.specs = specs
	} else {
		r.specs = realworld.RedsetSpecs(r.Seed)
	}
	if r.Resilience != "" {
		policy, err := pipeline.ParseResiliencePolicy(r.Resilience)
		if err != nil {
			return badReq("parsing resilience policy: %v", err)
		}
		r.policy = &policy
	}
	// The fields can each be in range and still combine into a degenerate
	// target, e.g. a range so narrow the normal's spread underflows to 0.
	if !validTarget(r.target(), r.Queries) {
		return badReq("distribution %q over range_hi %v cannot place %d queries in %d intervals",
			r.Distribution, r.RangeHi, r.Queries, r.Intervals)
	}
	return nil
}

// validTarget reports whether t assigns exactly queries non-negative counts
// over intervals with finite bounds.
func validTarget(t *stats.TargetDistribution, queries int) bool {
	if t == nil || len(t.Counts) != len(t.Intervals) {
		return false
	}
	finite := func(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
	total := 0
	for i, c := range t.Counts {
		if c < 0 || !finite(t.Intervals[i].Lo) || !finite(t.Intervals[i].Hi) {
			return false
		}
		total += c
	}
	return total == queries
}

// target builds the request's cost-target distribution. Pure function of the
// normalized request, so every pool size sees the same target.
func (r *JobRequest) target() *stats.TargetDistribution {
	switch r.Distribution {
	case "normal":
		return stats.Normal(0, r.RangeHi, r.Intervals, r.Queries, r.RangeHi/2, r.RangeHi/5)
	case "snowset-card":
		return realworld.SnowsetCardinality(1, 0, r.RangeHi, r.Intervals, r.Queries)
	case "snowset-cost":
		return realworld.SnowsetCost(0, r.RangeHi, r.Intervals, r.Queries)
	case "redset":
		return realworld.RedsetCost(0, r.RangeHi, r.Intervals, r.Queries)
	default:
		return stats.Uniform(0, r.RangeHi, r.Intervals, r.Queries)
	}
}

// artifactName is the job's on-disk artifact file name.
func (r *JobRequest) artifactName(jobID string) string {
	if r.Format == "json" {
		return jobID + ".json"
	}
	return jobID + ".sql"
}

// contentType is the artifact's HTTP content type.
func (r *JobRequest) contentType() string {
	if r.Format == "json" {
		return "application/json"
	}
	return "text/plain; charset=utf-8"
}
