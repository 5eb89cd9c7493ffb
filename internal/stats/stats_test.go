package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSplitRange(t *testing.T) {
	ivs := SplitRange(0, 1000, 10)
	if len(ivs) != 10 {
		t.Fatalf("got %d intervals, want 10", len(ivs))
	}
	if ivs[0].Lo != 0 || ivs[9].Hi != 1000 {
		t.Fatalf("range bounds wrong: %v..%v", ivs[0].Lo, ivs[9].Hi)
	}
	for i := 1; i < 10; i++ {
		if ivs[i].Lo != ivs[i-1].Hi {
			t.Fatalf("gap between intervals %d and %d", i-1, i)
		}
	}
	if SplitRange(0, 100, 0) != nil || SplitRange(100, 0, 5) != nil {
		t.Error("degenerate splits must return nil")
	}
}

func TestIntervalIndex(t *testing.T) {
	ivs := SplitRange(0, 100, 4)
	cases := []struct {
		c    float64
		want int
	}{
		{0, 0}, {24.9, 0}, {25, 1}, {50, 2}, {99.9, 3},
		{100, 3}, // top boundary maps to the last interval
		{-1, -1}, {101, -1},
	}
	for _, cse := range cases {
		if got := ivs.Index(cse.c); got != cse.want {
			t.Errorf("Index(%v) = %d, want %d", cse.c, got, cse.want)
		}
	}
}

func TestIntervalIndexMatchesLinearScanProperty(t *testing.T) {
	ivs := SplitRange(0, 977, 13)
	f := func(raw uint16) bool {
		c := float64(raw % 1100)
		got := ivs.Index(c)
		want := -1
		for j, iv := range ivs {
			if iv.Contains(c) {
				want = j
			}
		}
		if c == ivs.Hi() {
			want = len(ivs) - 1
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntervalDist(t *testing.T) {
	iv := Interval{Lo: 10, Hi: 20}
	if iv.Dist(15) != 0 || iv.Dist(10) != 0 {
		t.Error("inside distance must be 0")
	}
	if iv.Dist(5) != 5 {
		t.Errorf("below: got %v", iv.Dist(5))
	}
	if iv.Dist(25) != 5 {
		t.Errorf("above: got %v", iv.Dist(25))
	}
	if iv.Dist(20) != 0 {
		// Hi is excluded from Contains but Dist treats [lo,hi] per Eq (3).
		t.Errorf("at hi: got %v", iv.Dist(20))
	}
}

func TestFromWeightsExactTotal(t *testing.T) {
	ivs := SplitRange(0, 100, 7)
	w := []float64{1, 2, 0, 3, 0.5, 0.25, 1}
	d := FromWeights(ivs, w, 1000)
	if d.Total() != 1000 {
		t.Fatalf("total %d, want 1000", d.Total())
	}
	if d.Counts[2] != 0 {
		t.Errorf("zero-weight interval got %d queries", d.Counts[2])
	}
	if d.Counts[3] <= d.Counts[0] {
		t.Errorf("weights not respected: %v", d.Counts)
	}
}

// TestFromWeightsNaNCountsAsZero checks a NaN weight gets no queries and
// does not poison the others, and that all-NaN weights yield all-zero counts.
func TestFromWeightsNaNCountsAsZero(t *testing.T) {
	ivs := SplitRange(0, 4, 4)
	d := FromWeights(ivs, []float64{math.NaN(), 1, 1, 2}, 8)
	if d.Counts[0] != 0 || d.Counts[1] != 2 || d.Counts[2] != 2 || d.Counts[3] != 4 {
		t.Fatalf("counts %v, want [0 2 2 4]", d.Counts)
	}
	d = FromWeights(ivs, []float64{math.NaN(), math.NaN(), 0, math.NaN()}, 10)
	if d.Total() != 0 {
		t.Fatalf("all-NaN weights placed %d queries: %v", d.Total(), d.Counts)
	}
}

func TestFromWeightsProperty(t *testing.T) {
	f := func(seed int64, totalRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		total := int(totalRaw)%5000 + 1
		ivs := SplitRange(0, 10000, n)
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.Float64()
		}
		d := FromWeights(ivs, w, total)
		if d.Total() != total {
			return false
		}
		for _, c := range d.Counts {
			if c < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestUniformAndNormalShapes(t *testing.T) {
	u := Uniform(0, 1000, 10, 1000)
	for _, c := range u.Counts {
		if c != 100 {
			t.Fatalf("uniform counts not equal: %v", u.Counts)
		}
	}
	n := Normal(0, 1000, 10, 1000, 500, 150)
	if n.Counts[4] <= n.Counts[0] || n.Counts[5] <= n.Counts[9] {
		t.Fatalf("normal not peaked at center: %v", n.Counts)
	}
	if n.Total() != 1000 {
		t.Fatalf("normal total %d", n.Total())
	}
}

func TestWassersteinIdentity(t *testing.T) {
	ivs := SplitRange(0, 1000, 10)
	a := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if d := Wasserstein(ivs, a, a); d != 0 {
		t.Fatalf("W(a,a) = %v, want 0", d)
	}
}

func TestWassersteinSymmetryProperty(t *testing.T) {
	ivs := SplitRange(0, 1000, 8)
	f := func(raw [8]uint8, raw2 [8]uint8) bool {
		a := make([]int, 8)
		b := make([]int, 8)
		for i := range a {
			a[i] = int(raw[i])
			b[i] = int(raw2[i])
		}
		d1 := Wasserstein(ivs, a, b)
		d2 := Wasserstein(ivs, b, a)
		return math.Abs(d1-d2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWassersteinKnownValue(t *testing.T) {
	// All mass in bucket 0 vs all mass in bucket 9 over [0,1000)x10:
	// moving 100% of the mass 9 buckets over 100-wide buckets = 900.
	ivs := SplitRange(0, 1000, 10)
	a := make([]int, 10)
	b := make([]int, 10)
	a[0] = 5
	b[9] = 5
	if d := Wasserstein(ivs, a, b); math.Abs(d-900) > 1e-9 {
		t.Fatalf("W = %v, want 900", d)
	}
}

func TestWassersteinEmptyIsPointMassAtZero(t *testing.T) {
	ivs := SplitRange(0, 1000, 10)
	target := make([]int, 10)
	target[9] = 10
	empty := make([]int, 10)
	d := Wasserstein(ivs, target, empty)
	if math.Abs(d-900) > 1e-9 {
		t.Fatalf("empty-vs-top distance = %v, want 900", d)
	}
}

func TestWassersteinCosts(t *testing.T) {
	target := Uniform(0, 100, 4, 8)
	costs := []float64{10, 20, 30, 40, 60, 70, 80, 95}
	if d := WassersteinCosts(target, costs); d != 0 {
		t.Fatalf("matched distribution should be 0, got %v", d)
	}
}

func TestDeficitDistanceZeroWhenFilled(t *testing.T) {
	target := Uniform(0, 100, 4, 8)
	if d := DeficitDistance(target, []int{2, 2, 2, 2}); d != 0 {
		t.Fatalf("filled deficit = %v", d)
	}
	if d := DeficitDistance(target, []int{0, 0, 0, 0}); d <= 0 {
		t.Fatalf("empty deficit = %v, want > 0", d)
	}
}

func TestLatinHypercubeStratification(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, dims := 64, 3
	samples := LatinHypercube(rng, n, dims)
	if len(samples) != n {
		t.Fatalf("got %d samples", len(samples))
	}
	// Every dimension must have exactly one sample per stratum of width 1/n.
	for d := 0; d < dims; d++ {
		seen := make([]bool, n)
		for _, s := range samples {
			if s[d] < 0 || s[d] >= 1 {
				t.Fatalf("sample out of [0,1): %v", s[d])
			}
			k := int(s[d] * float64(n))
			if seen[k] {
				t.Fatalf("dimension %d stratum %d hit twice — not Latin", d, k)
			}
			seen[k] = true
		}
	}
}

func TestLatinHypercubeVsIndependentCoverage(t *testing.T) {
	// LHS must cover 1-D strata perfectly; independent sampling usually
	// leaves gaps. This is the property §5.1 relies on.
	rng := rand.New(rand.NewSource(7))
	n := 32
	lhs := LatinHypercube(rng, n, 1)
	vals := make([]float64, n)
	for i, s := range lhs {
		vals[i] = s[0]
	}
	sort.Float64s(vals)
	for i := 0; i < n; i++ {
		lo, hi := float64(i)/float64(n), float64(i+1)/float64(n)
		if vals[i] < lo || vals[i] >= hi {
			t.Fatalf("sample %d = %v outside stratum [%v,%v)", i, vals[i], lo, hi)
		}
	}
	if got := IndependentUniform(rng, 10, 2); len(got) != 10 || len(got[0]) != 2 {
		t.Fatal("independent sampling shape wrong")
	}
}

func TestLatinHypercubeDegenerate(t *testing.T) {
	if LatinHypercube(rand.New(rand.NewSource(1)), 0, 3) != nil {
		t.Error("n=0 must return nil")
	}
	if LatinHypercube(rand.New(rand.NewSource(1)), 3, 0) != nil {
		t.Error("dims=0 must return nil")
	}
}

func TestCountInto(t *testing.T) {
	ivs := SplitRange(0, 100, 4)
	counts := ivs.CountInto([]float64{5, 30, 55, 80, 99, 150, -3})
	want := []int{1, 1, 1, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

func TestTargetDistributionClone(t *testing.T) {
	d := Uniform(0, 100, 4, 40)
	c := d.Clone()
	c.Counts[0] = 999
	if d.Counts[0] == 999 {
		t.Fatal("Clone must deep-copy counts")
	}
}

func TestIntervalString(t *testing.T) {
	iv := Interval{Lo: 2000, Hi: 3000}
	if iv.String() != "2.0k-3.0k" {
		t.Errorf("String() = %q", iv.String())
	}
}
