package main

import (
	"path/filepath"
	"testing"
)

// TestFixtureTripsEveryRule asserts the badpkg fixture produces all five
// rule codes.
func TestFixtureTripsEveryRule(t *testing.T) {
	findings, err := LintDir(filepath.Join("testdata", "internal", "badpkg"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, f := range findings {
		got[f.Code]++
		if f.Pos.Filename == "" || f.Pos.Line == 0 {
			t.Errorf("finding %s has no position", f.Code)
		}
	}
	want := map[string]int{"R001": 1, "R002": 1, "R003": 2, "R004": 1, "R005": 2}
	for code, n := range want {
		if got[code] != n {
			t.Errorf("rule %s fired %d time(s), want %d (all: %v)", code, got[code], n, got)
		}
	}
	if len(findings) != 7 {
		t.Errorf("total findings = %d, want 7: %v", len(findings), findings)
	}
}

// TestObsFixtureTripsR006 asserts the badobs fixture (which emulates an
// instrumented internal/pipeline package) produces the expected R006
// findings: one per direct clock read plus one for the sync/atomic import.
func TestObsFixtureTripsR006(t *testing.T) {
	findings, err := LintDir(filepath.Join("testdata", "internal", "pipeline", "badobs"))
	if err != nil {
		t.Fatal(err)
	}
	var r006 int
	for _, f := range findings {
		if f.Code == "R006" {
			r006++
		} else {
			t.Errorf("unexpected non-R006 finding: %v", f)
		}
		if f.Pos.Filename == "" || f.Pos.Line == 0 {
			t.Errorf("finding %s has no position", f.Code)
		}
	}
	if r006 != 3 {
		t.Errorf("R006 fired %d time(s), want 3 (time.Now, time.Since, sync/atomic import): %v", r006, findings)
	}
}

// TestProfilerFixtureTripsR006 asserts R006 also covers newly instrumented
// files outside internal/pipeline: the badbatch fixture emulates an
// internal/profiler file that wall-clocks a batched probe sweep and
// hand-rolls its probe counter.
func TestProfilerFixtureTripsR006(t *testing.T) {
	findings, err := LintDir(filepath.Join("testdata", "internal", "profiler", "badbatch"))
	if err != nil {
		t.Fatal(err)
	}
	var r006 int
	for _, f := range findings {
		if f.Code == "R006" {
			r006++
		} else {
			t.Errorf("unexpected non-R006 finding: %v", f)
		}
	}
	if r006 != 3 {
		t.Errorf("R006 fired %d time(s), want 3 (time.Now, time.Since, sync/atomic import): %v", r006, findings)
	}
}

// TestObsRuleScopedToInstrumentedPackages asserts R006 stays silent outside
// the instrumented package set: badpkg sits under internal/ but not under an
// instrumented package name, and it may use the wall clock freely.
func TestObsRuleScopedToInstrumentedPackages(t *testing.T) {
	findings, err := LintDir(filepath.Join("testdata", "internal", "badpkg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Code == "R006" {
			t.Errorf("R006 fired outside an instrumented package: %v", f)
		}
	}
}

// TestIsInstrumentedDir checks testdata-aware instrumented-package detection.
func TestIsInstrumentedDir(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"/repo/internal/pipeline", true},
		{"/repo/internal/search", true},
		{"/repo/internal/engine", false},
		{"/repo/cmd/barbervet/testdata/internal/pipeline/badobs", true},
		{"/repo/cmd/barbervet/testdata/internal/profiler/badbatch", true},
		{"/repo/cmd/barbervet/testdata/internal/badpkg", false},
		{"/repo/internal/obs", false},
	}
	for _, tc := range cases {
		if got := isInstrumentedDir(tc.path); got != tc.want {
			t.Errorf("isInstrumentedDir(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
}

// TestFloatFixtureTripsR007 asserts the badfloat fixture (which emulates an
// internal/plan package) produces exactly the pinned R007 findings: two
// float64 params, a float64 struct field, a float literal, a math call, a
// float-typed local against a float const, and a single-float64-result call.
func TestFloatFixtureTripsR007(t *testing.T) {
	findings, err := LintDir(filepath.Join("testdata", "internal", "plan", "badfloat"))
	if err != nil {
		t.Fatal(err)
	}
	var r007 int
	for _, f := range findings {
		if f.Code == "R007" {
			r007++
		} else {
			t.Errorf("unexpected non-R007 finding: %v", f)
		}
		if f.Pos.Filename == "" || f.Pos.Line == 0 {
			t.Errorf("finding %s has no position", f.Code)
		}
	}
	if r007 != 6 {
		t.Errorf("R007 fired %d time(s), want 6: %v", r007, findings)
	}
}

// TestFloatRuleScopedToEstimatorPackages asserts R007 stays silent outside
// internal/plan and internal/analyzer: badpkg sits under internal/ and may
// compare floats exactly.
func TestFloatRuleScopedToEstimatorPackages(t *testing.T) {
	findings, err := LintDir(filepath.Join("testdata", "internal", "badpkg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Code == "R007" {
			t.Errorf("R007 fired outside a float-strict package: %v", f)
		}
	}
}

// TestIsFloatStrictDir checks testdata-aware float-strict path detection.
func TestIsFloatStrictDir(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"/repo/internal/plan", true},
		{"/repo/internal/analyzer", true},
		{"/repo/internal/analyzer/intervals", true},
		{"/repo/internal/stats", false},
		{"/repo/cmd/barbervet/testdata/internal/plan/badfloat", true},
		{"/repo/cmd/barbervet/testdata/internal/badpkg", false},
	}
	for _, tc := range cases {
		if got := isFloatStrictDir(tc.path); got != tc.want {
			t.Errorf("isFloatStrictDir(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
}

// TestSlotFixtureTripsR008 asserts the badslot fixture (which emulates an
// internal/engine file importing the AST package) produces exactly the two
// pinned R008 findings: a direct literal-slot write and the pre-session
// slot-assignment loop.
func TestSlotFixtureTripsR008(t *testing.T) {
	findings, err := LintDir(filepath.Join("testdata", "internal", "engine", "badslot"))
	if err != nil {
		t.Fatal(err)
	}
	var r008 int
	for _, f := range findings {
		if f.Code == "R008" {
			r008++
		} else {
			t.Errorf("unexpected non-R008 finding: %v", f)
		}
		if f.Pos.Filename == "" || f.Pos.Line == 0 {
			t.Errorf("finding %s has no position", f.Code)
		}
	}
	if r008 != 2 {
		t.Errorf("R008 fired %d time(s), want 2 (direct write, loop write): %v", r008, findings)
	}
}

// TestPlanSlotFixtureTripsR008 asserts internal/plan has no R008 exemption:
// the plan/badslot fixture, which re-creates the deleted slot-assignment loop
// inside an emulated internal/plan package, produces exactly one R008
// finding.
func TestPlanSlotFixtureTripsR008(t *testing.T) {
	findings, err := LintDir(filepath.Join("testdata", "internal", "plan", "badslot"))
	if err != nil {
		t.Fatal(err)
	}
	var r008 int
	for _, f := range findings {
		if f.Code == "R008" {
			r008++
		}
	}
	if r008 != 1 {
		t.Errorf("R008 fired %d time(s) in internal/plan, want 1 (slot-assignment loop): %v", r008, findings)
	}
}

// TestSlotRuleScopedToASTImporters asserts R008 stays silent in files that do
// not import the AST package: badpkg assigns freely to its own fields.
func TestSlotRuleScopedToASTImporters(t *testing.T) {
	findings, err := LintDir(filepath.Join("testdata", "internal", "badpkg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Code == "R008" {
			t.Errorf("R008 fired in a file that never imports the AST package: %v", f)
		}
	}
}

// TestIsSlotOwnerDir checks testdata-aware slot-owner path detection: the
// only package allowed to write literal slots is internal/sqlparser;
// internal/plan lost its exemption once nothing wrote a compiled statement
// after Compile.
func TestIsSlotOwnerDir(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"/repo/internal/plan", false},
		{"/repo/internal/sqlparser", true},
		{"/repo/internal/engine", false},
		{"/repo/internal/exec", false},
		{"/repo/cmd/barbervet/testdata/internal/plan/badfloat", false},
		{"/repo/cmd/barbervet/testdata/internal/plan/badslot", false},
		{"/repo/cmd/barbervet/testdata/internal/engine/badslot", false},
	}
	for _, tc := range cases {
		if got := isSlotOwnerDir(tc.path); got != tc.want {
			t.Errorf("isSlotOwnerDir(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
}

// TestLinterIsCleanOnItself asserts barbervet's own sources pass.
func TestLinterIsCleanOnItself(t *testing.T) {
	findings, err := LintDir(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("barbervet flags itself: %v", findings)
	}
}

// TestExpandPatternSkipsTestdata asserts ./... never descends into fixture
// or hidden directories.
func TestExpandPatternSkipsTestdata(t *testing.T) {
	dirs, err := expandPattern("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if filepath.Base(d) == "badpkg" {
			t.Fatalf("pattern expansion descended into testdata: %v", dirs)
		}
	}
	if len(dirs) == 0 {
		t.Fatal("no directories found")
	}
}

// TestClassifyDir checks testdata-aware path classification.
func TestClassifyDir(t *testing.T) {
	// Absolute paths keep the test independent of the working directory.
	cases := []struct {
		path              string
		inInternal, inCmd bool
	}{
		{"/repo/internal/bo", true, false},
		{"/repo/cmd/barbervet", false, true},
		{"/repo/cmd/barbervet/testdata/internal/badpkg", true, false},
		{"/repo", false, false},
	}
	for _, tc := range cases {
		gotInt, gotCmd := classifyDir(tc.path)
		if gotInt != tc.inInternal || gotCmd != tc.inCmd {
			t.Errorf("classifyDir(%q) = (%v, %v), want (%v, %v)",
				tc.path, gotInt, gotCmd, tc.inInternal, tc.inCmd)
		}
	}
}

// TestSleepFixtureTripsR009 asserts the badsleep fixture (which emulates an
// internal/llm file sleeping on the real clock) produces exactly the two
// pinned R009 findings — the time.Sleep and the time.After in bad.go — and
// that clock.go, the abstraction's own implementation, stays exempt.
func TestSleepFixtureTripsR009(t *testing.T) {
	findings, err := LintDir(filepath.Join("testdata", "internal", "llm", "badsleep"))
	if err != nil {
		t.Fatal(err)
	}
	var r009 int
	for _, f := range findings {
		if f.Code == "R009" {
			r009++
		} else {
			t.Errorf("unexpected non-R009 finding: %v", f)
		}
		if filepath.Base(f.Pos.Filename) == "clock.go" {
			t.Errorf("R009 fired in the exempt clock.go: %v", f)
		}
		if f.Pos.Filename == "" || f.Pos.Line == 0 {
			t.Errorf("finding %s has no position", f.Code)
		}
	}
	if r009 != 2 {
		t.Errorf("R009 fired %d time(s), want 2 (time.Sleep, time.After): %v", r009, findings)
	}
}

// TestClockRuleScopedToLLMDirs asserts R009 stays silent outside
// internal/llm: badpkg may sleep freely.
func TestClockRuleScopedToLLMDirs(t *testing.T) {
	findings, err := LintDir(filepath.Join("testdata", "internal", "badpkg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Code == "R009" {
			t.Errorf("R009 fired outside internal/llm: %v", f)
		}
	}
}

func TestAllocFixtureTripsR010(t *testing.T) {
	findings, err := LintDir(filepath.Join("testdata", "internal", "rf", "badalloc"))
	if err != nil {
		t.Fatal(err)
	}
	var r010 int
	for _, f := range findings {
		if f.Code == "R010" {
			r010++
		} else {
			t.Errorf("unexpected non-R010 finding: %v", f)
		}
		if filepath.Base(f.Pos.Filename) == "reference.go" {
			t.Errorf("R010 fired in the exempt reference.go: %v", f)
		}
		if f.Pos.Filename == "" || f.Pos.Line == 0 {
			t.Errorf("finding %s has no position", f.Code)
		}
	}
	if r010 != 3 {
		t.Errorf("R010 fired %d time(s), want 3 (two in grow, one in build): %v", r010, findings)
	}
}

// TestAllocRuleScopedToRFDirs asserts R010 stays silent outside internal/rf:
// badpkg may allocate in recursion freely.
func TestAllocRuleScopedToRFDirs(t *testing.T) {
	findings, err := LintDir(filepath.Join("testdata", "internal", "badpkg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Code == "R010" {
			t.Errorf("R010 fired outside internal/rf: %v", f)
		}
	}
}

// TestIsRFDir checks testdata-aware internal/rf path detection.
func TestIsRFDir(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"/repo/internal/rf", true},
		{"/repo/internal/engine", false},
		{"/repo/internal/llm", false},
		{"/repo/cmd/barbervet/testdata/internal/rf/badalloc", true},
		{"/repo/cmd/barbervet/testdata/internal/badpkg", false},
	}
	for _, tc := range cases {
		if got := isRFDir(tc.path); got != tc.want {
			t.Errorf("isRFDir(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
}

// TestIsLLMDir checks testdata-aware internal/llm path detection, including
// subpackages like internal/llm/resilience.
func TestIsLLMDir(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"/repo/internal/llm", true},
		{"/repo/internal/llm/resilience", true},
		{"/repo/internal/engine", false},
		{"/repo/internal/pipeline", false},
		{"/repo/cmd/barbervet/testdata/internal/llm/badsleep", true},
		{"/repo/cmd/barbervet/testdata/internal/badpkg", false},
	}
	for _, tc := range cases {
		if got := isLLMDir(tc.path); got != tc.want {
			t.Errorf("isLLMDir(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
}
