package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1, -3, 3}, 0},
		{"fractional", []float64{0.1, 0.2, 0.3}, 0.2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.in); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestSumKahanStability(t *testing.T) {
	// 1e8 + many tiny values: naive summation loses precision; Kahan must
	// keep it. Build the case with a moderate count to keep tests fast.
	xs := make([]float64, 0, 10001)
	xs = append(xs, 1e8)
	for i := 0; i < 10000; i++ {
		xs = append(xs, 1e-8)
	}
	want := 1e8 + 10000*1e-8
	if got := Sum(xs); !almostEqual(got, want, 1e-8) {
		t.Errorf("Sum = %.12f, want %.12f", got, want)
	}
}

func TestVariance(t *testing.T) {
	tests := []struct {
		name      string
		in        []float64
		pop, samp float64
	}{
		{"empty", nil, 0, 0},
		{"single", []float64{3}, 0, 0},
		{"constant", []float64{2, 2, 2, 2}, 0, 0},
		{"simple", []float64{1, 2, 3, 4}, 1.25, 5.0 / 3.0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Variance(tt.in); !almostEqual(got, tt.pop, 1e-12) {
				t.Errorf("Variance = %v, want %v", got, tt.pop)
			}
			if got := SampleVariance(tt.in); !almostEqual(got, tt.samp, 1e-12) {
				t.Errorf("SampleVariance = %v, want %v", got, tt.samp)
			}
		})
	}
}

// cdfQuantile is CDF.Quantile over xs: the type-7 rule's only entry.
func cdfQuantile(xs []float64, q float64) (float64, error) {
	var c CDF
	for _, x := range xs {
		c.Add(x)
	}
	return c.Quantile(q)
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, tt := range tests {
		got, err := cdfQuantile(xs, tt.q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", tt.q, err)
		}
		if !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if _, err := cdfQuantile(nil, 0.5); err == nil {
		t.Error("Quantile of empty should error")
	}
	if _, err := cdfQuantile(xs, 1.5); err == nil {
		t.Error("Quantile(1.5) should error")
	}
	if _, err := cdfQuantile(xs, -0.1); err == nil {
		t.Error("Quantile(-0.1) should error")
	}
	if _, err := cdfQuantile(xs, math.NaN()); err == nil {
		t.Error("Quantile(NaN) should error")
	}
}

// TestMedian: the median is the quantile at 0.5 (the Median wrapper had no
// caller).
func TestMedian(t *testing.T) {
	got, err := cdfQuantile([]float64{9, 1, 5}, 0.5)
	if err != nil || got != 5 {
		t.Errorf("Median = %v, %v; want 5", got, err)
	}
	got, err = cdfQuantile([]float64{1, 2, 3, 4}, 0.5)
	if err != nil || !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("Median = %v, %v; want 2.5", got, err)
	}
}

func TestNormalQuantile(t *testing.T) {
	tests := []struct {
		p, want float64
	}{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.025, -1.959963984540054},
		{0.95, 1.6448536269514722},
		{0.841344746068543, 1.0},
	}
	for _, tt := range tests {
		if got := NormalQuantile(tt.p); !almostEqual(got, tt.want, 1e-6) {
			t.Errorf("NormalQuantile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("tails should be infinite")
	}
}

func TestMeanCI(t *testing.T) {
	xs := []float64{10, 12, 9, 11, 10, 12, 9, 11}
	mean, hw := MeanCI(xs, 0.95)
	if !almostEqual(mean, 10.5, 1e-12) {
		t.Errorf("mean = %v, want 10.5", mean)
	}
	if hw <= 0 {
		t.Errorf("half-width = %v, want > 0", hw)
	}
	// Single sample: zero half-width.
	if _, hw := MeanCI([]float64{4}, 0.95); hw != 0 {
		t.Errorf("single-sample half-width = %v, want 0", hw)
	}
}

func TestPearsonCorrelation(t *testing.T) {
	perfect := []float64{1, 2, 3, 4}
	double := []float64{2, 4, 6, 8}
	r, err := PearsonCorrelation(perfect, double)
	if err != nil || !almostEqual(r, 1, 1e-12) {
		t.Errorf("perfect positive: r = %v, err = %v", r, err)
	}
	neg := []float64{4, 3, 2, 1}
	r, err = PearsonCorrelation(perfect, neg)
	if err != nil || !almostEqual(r, -1, 1e-12) {
		t.Errorf("perfect negative: r = %v, err = %v", r, err)
	}
	constant := []float64{5, 5, 5, 5}
	r, err = PearsonCorrelation(perfect, constant)
	if err != nil || r != 0 {
		t.Errorf("constant series: r = %v, err = %v; want 0", r, err)
	}
	if _, err := PearsonCorrelation([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
}

// TestSpearmanCorrelation: Spearman's ρ is Pearson's r of the mid-rank
// transforms (the wrapper had no caller).
func TestSpearmanCorrelation(t *testing.T) {
	// Monotonic but nonlinear relation: Spearman = 1, Pearson < 1.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125}
	rho, err := PearsonCorrelation(Ranks(xs), Ranks(ys))
	if err != nil || !almostEqual(rho, 1, 1e-12) {
		t.Errorf("Spearman = %v, err = %v; want 1", rho, err)
	}
	if r, _ := PearsonCorrelation(xs, ys); r >= 1-1e-6 {
		t.Errorf("Pearson = %v: the relation is linear, Spearman shows nothing", r)
	}
}

func TestRanksWithTies(t *testing.T) {
	ranks := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if !almostEqual(ranks[i], want[i], 1e-12) {
			t.Fatalf("Ranks = %v, want %v", ranks, want)
		}
	}
}

func TestQuantilePropertyWithinBounds(t *testing.T) {
	f := func(raw []float64, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, x)
		}
		if len(xs) == 0 {
			return true
		}
		q := float64(qRaw) / 255
		v, err := cdfQuantile(xs, q)
		if err != nil {
			return false
		}
		return v >= slices.Min(xs) && v <= slices.Max(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVariancePropertyNonNegative(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				continue
			}
			xs = append(xs, x)
		}
		return Variance(xs) >= 0 && SampleVariance(xs) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStdDev: the population standard deviation is √Variance, the
// sample one above it (the StdDev wrapper had no caller).
func TestStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := math.Sqrt(Variance(xs)); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := SampleStdDev(xs); got <= 2 {
		t.Errorf("SampleStdDev = %v, want > population", got)
	}
}

// Ranks returns the mid-rank transform of xs: equal values receive the mean
// of the ranks they span. Ranks are 1-based.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Mid-rank over the tie run [i, j].
		mid := (float64(i+1) + float64(j+1)) / 2
		for k := i; k <= j; k++ {
			ranks[idx[k]] = mid
		}
		i = j + 1
	}
	return ranks
}
