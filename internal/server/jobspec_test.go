package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"testing"

	"sqlbarber/internal/engine"
)

func TestNormalizeDefaults(t *testing.T) {
	var r JobRequest
	if err := r.normalize(); err != nil {
		t.Fatalf("normalize(zero) = %v", err)
	}
	if r.Dataset != "tpch" || r.ScaleFactor != 0.05 || r.Seed != 1 {
		t.Fatalf("dataset defaults wrong: %+v", r)
	}
	if r.CostKind != "cardinality" || r.kind != engine.Cardinality {
		t.Fatalf("cost kind defaults wrong: %+v", r)
	}
	if r.Distribution != "uniform" || r.Queries != 100 || r.Intervals != 8 || r.RangeHi != 2500 {
		t.Fatalf("target defaults wrong: %+v", r)
	}
	if r.Parallel != 1 || r.Format != "sql" {
		t.Fatalf("run defaults wrong: %+v", r)
	}
	if len(r.specs) == 0 {
		t.Fatalf("normalize left specs empty; want Redset-derived defaults")
	}
	if r.policy != nil {
		t.Fatalf("normalize invented a resilience policy: %+v", r.policy)
	}
	if r.target() == nil {
		t.Fatalf("target() = nil")
	}
}

func TestNormalizeParsesSpecsAndPolicy(t *testing.T) {
	specsJSON, err := json.Marshal([]map[string]any{
		{"template_id": 1, "num_joins": 1, "num_aggregations": 1},
		{"template_id": 2, "num_joins": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := JobRequest{
		Specs:      specsJSON,
		Resilience: "retry=3,backoff=10ms",
		CostKind:   "plancost",
		Format:     "JSON",
	}
	if err := r.normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	if len(r.specs) != 2 {
		t.Fatalf("parsed %d specs, want 2", len(r.specs))
	}
	if r.policy == nil || r.policy.Retry.MaxAttempts != 3 {
		t.Fatalf("policy not parsed: %+v", r.policy)
	}
	if r.kind != engine.PlanCost {
		t.Fatalf("kind = %v, want PlanCost", r.kind)
	}
	if r.Format != "json" || r.artifactName("job-1") != "job-1.json" || r.contentType() != "application/json" {
		t.Fatalf("format handling wrong: %+v", r)
	}
}

func TestNormalizeRejections(t *testing.T) {
	cases := map[string]JobRequest{
		"dataset":      {Dataset: "mysql"},
		"scale factor": {ScaleFactor: 3},
		"neg sf":       {ScaleFactor: -1},
		"cost kind":    {CostKind: "watts"},
		"distribution": {Distribution: "pareto"},
		"queries":      {Queries: -1},
		"intervals":    {Intervals: 10000},
		"range":        {RangeHi: -5},
		"parallel":     {Parallel: 100},
		"profile":      {ProfileFraction: 2},
		"format":       {Format: "csv"},
		"specs":        {Specs: json.RawMessage(`{"oops"`)},
		"policy":       {Resilience: "retry=never"},
		"removed keys": {Resilience: "retry=4,backoff=100ms,maxbackoff=2s,jitter=0.3,hedge=500ms,hedgepct=0.95,breaker=5,cooldown=30s,rate=2.5,burst=4,conc=8"},
		// The normal's stddev (range_hi/5) underflows to 0, so every weight
		// is NaN or 0 and no query could be placed.
		"degenerate normal": {Distribution: "normal", RangeHi: 5e-324},
	}
	for name, r := range cases {
		if err := r.normalize(); !errors.Is(err, ErrBadJobRequest) {
			t.Errorf("%s: normalize = %v, want ErrBadJobRequest", name, err)
		}
	}
}

func TestEveryDistributionBuildsATarget(t *testing.T) {
	for _, dist := range []string{"uniform", "normal", "snowset-card", "snowset-cost", "redset"} {
		r := JobRequest{Distribution: dist}
		if err := r.normalize(); err != nil {
			t.Fatalf("%s: normalize: %v", dist, err)
		}
		tgt := r.target()
		if tgt == nil {
			t.Fatalf("%s: target() = nil", dist)
		}
		total := 0
		for _, c := range tgt.Counts {
			total += c
		}
		if total == 0 {
			t.Errorf("%s: target has zero total count", dist)
		}
	}
}

// FuzzJobRequest decodes arbitrary submit bodies the way the handler does
// and checks the contract workers rely on: a request normalize accepts has
// a target that assigns exactly Queries non-negative counts over intervals
// with finite bounds, and a rejected one reports ErrBadJobRequest.
func FuzzJobRequest(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"dataset":"imdb","cost_kind":"plancost","distribution":"redset","queries":50,"intervals":5,"range_hi":900}`,
		`{"distribution":"normal","range_hi":5e-324}`,
		`{"distribution":"normal","range_hi":1e308,"intervals":500,"queries":10000}`,
		`{"distribution":"snowset-card","range_hi":1e-300,"intervals":3}`,
		`{"distribution":"snowset-cost","queries":1,"intervals":500}`,
		`{"specs":[{"template_id":1,"num_joins":1}],"resilience":"retry=3,backoff=10ms"}`,
		`{"resilience":"rate=NaN"}`,
		`{"resilience":"retry=4,backoff=100ms,maxbackoff=2s,jitter=0.3,hedge=500ms,hedgepct=0.95,breaker=5,cooldown=30s,rate=2.5,burst=4,conc=8"}`,
		`{"warp":9}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var r JobRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil && !errors.Is(err, io.EOF) {
			return
		}
		if err := r.normalize(); err != nil {
			if !errors.Is(err, ErrBadJobRequest) {
				t.Fatalf("normalize(%s) = %v, want ErrBadJobRequest", body, err)
			}
			return
		}
		tgt := r.target()
		if tgt == nil || len(tgt.Counts) != len(tgt.Intervals) {
			t.Fatalf("accepted %s but target() is malformed: %+v", body, tgt)
		}
		total := 0
		for i, c := range tgt.Counts {
			iv := tgt.Intervals[i]
			if c < 0 || math.IsNaN(iv.Lo) || math.IsInf(iv.Lo, 0) || math.IsNaN(iv.Hi) || math.IsInf(iv.Hi, 0) {
				t.Fatalf("accepted %s but interval %d is [%v, %v] with count %d", body, i, iv.Lo, iv.Hi, c)
			}
			total += c
		}
		if total != r.Queries {
			t.Fatalf("accepted %s but the target places %d queries, want %d", body, total, r.Queries)
		}
	})
}
