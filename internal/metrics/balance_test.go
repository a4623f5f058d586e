package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestBalanceIndex(t *testing.T) {
	tests := []struct {
		name    string
		loads   []float64
		want    float64
		wantErr bool
	}{
		{"empty", nil, 0, true},
		{"negative", []float64{1, -2}, 0, true},
		{"nan", []float64{math.NaN()}, 0, true},
		{"perfectly balanced", []float64{5, 5, 5, 5}, 1, false},
		{"single AP", []float64{7}, 1, false},
		{"all idle", []float64{0, 0, 0}, 1, false},
		{"one hot", []float64{10, 0, 0, 0}, 0.25, false},
		{"two of four", []float64{6, 6, 0, 0}, 0.5, false},
		{"uneven", []float64{1, 3}, 16.0 / 20.0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := BalanceIndex(tt.loads)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, tt.wantErr)
			}
			if err == nil && !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("BalanceIndex(%v) = %v, want %v", tt.loads, got, tt.want)
			}
		})
	}
}

func TestNormalizedBalanceIndex(t *testing.T) {
	tests := []struct {
		name  string
		loads []float64
		want  float64
	}{
		{"balanced", []float64{2, 2, 2}, 1},
		{"one hot n=4", []float64{9, 0, 0, 0}, 0}, // B = 1/n maps to 0
		{"single AP", []float64{3}, 1},
		{"idle", []float64{0, 0}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := NormalizedBalanceIndex(tt.loads)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("NormalizedBalanceIndex(%v) = %v, want %v",
					tt.loads, got, tt.want)
			}
		})
	}
}

// Property: B ∈ [1/n, 1], invariant under permutation and positive scaling.
func TestBalanceIndexProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		n := 1 + rng.Intn(12)
		loads := make([]float64, n)
		for i := range loads {
			loads[i] = rng.Float64() * 100
		}
		b, err := BalanceIndex(loads)
		if err != nil {
			return false
		}
		if b < 1/float64(n)-1e-12 || b > 1+1e-12 {
			return false
		}
		// Permutation invariance.
		perm := rng.Perm(n)
		shuffled := make([]float64, n)
		for i, p := range perm {
			shuffled[i] = loads[p]
		}
		b2, _ := BalanceIndex(shuffled)
		if !almostEqual(b, b2, 1e-9) {
			return false
		}
		// Scale invariance.
		scale := 0.5 + rng.Float64()*10
		scaled := make([]float64, n)
		for i := range loads {
			scaled[i] = loads[i] * scale
		}
		b3, _ := BalanceIndex(scaled)
		if !almostEqual(b, b3, 1e-9) {
			return false
		}
		// Normalized form in [0, 1].
		nb, err := NormalizedBalanceIndex(loads)
		if err != nil || nb < 0 || nb > 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestNewSeries builds a series bin by bin with Add.
func TestNewSeries(t *testing.T) {
	loads := [][]float64{
		{5, 5},
		{0, 0},
		{10, 0},
	}
	s := &Series{Start: 1000, BinSeconds: 60}
	for _, row := range loads {
		if err := s.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.Values) != 3 {
		t.Fatalf("len(Values) = %d, want 3", len(s.Values))
	}
	if !almostEqual(s.Values[0], 1, 1e-12) {
		t.Errorf("bin 0 = %v, want 1", s.Values[0])
	}
	if !s.Idle[1] || s.Idle[0] || s.Idle[2] {
		t.Errorf("Idle = %v, want [false true false]", s.Idle)
	}
	if !almostEqual(s.Values[2], 0, 1e-12) {
		t.Errorf("bin 2 = %v, want 0", s.Values[2])
	}
	if got := s.BinTime(2); got != 1120 {
		t.Errorf("BinTime(2) = %d, want 1120", got)
	}
	active := s.ActiveValues()
	if len(active) != 2 {
		t.Errorf("ActiveValues = %v, want 2 values", active)
	}
}

// TestNewSeriesErrors: Add refuses a bin it cannot score and leaves the
// series as it was.
func TestNewSeriesErrors(t *testing.T) {
	s := &Series{Start: 0, BinSeconds: 60}
	if err := s.Add([]float64{-1}); err == nil {
		t.Error("negative load should error")
	}
	if err := s.Add(nil); err == nil {
		t.Error("a bin without APs should error")
	}
	if len(s.Values) != 0 || len(s.Idle) != 0 {
		t.Errorf("refused bins were added: %v %v", s.Values, s.Idle)
	}
}

func TestRelativeChanges(t *testing.T) {
	got := RelativeChanges([]float64{1, 1.1, 0.99, 0.99})
	want := []float64{0.1, (0.99 - 1.1) / 1.1, 0}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Fatalf("RelativeChanges = %v, want %v", got, want)
		}
	}
	// Zero predecessor bins are skipped.
	got = RelativeChanges([]float64{0, 5, 10})
	if len(got) != 1 || !almostEqual(got[0], 1, 1e-12) {
		t.Errorf("RelativeChanges with zero = %v, want [1]", got)
	}
	if got := RelativeChanges(nil); len(got) != 0 {
		t.Errorf("empty input should give empty output, got %v", got)
	}
}

func TestVarianceOfBalance(t *testing.T) {
	// Constant series: no change, zero variance.
	if v := VarianceOfBalance([]float64{0.8, 0.8, 0.8, 0.8}); v != 0 {
		t.Errorf("constant variance = %v, want 0", v)
	}
	// Fluctuating series: positive variance.
	if v := VarianceOfBalance([]float64{0.5, 1.0, 0.5, 1.0}); v <= 0 {
		t.Errorf("fluctuating variance = %v, want > 0", v)
	}
	// Too few sub-periods.
	if v := VarianceOfBalance([]float64{0.5, 1.0}); v != 0 {
		t.Errorf("short series variance = %v, want 0", v)
	}
}

func TestCompare(t *testing.T) {
	policy := []float64{0.9, 0.88, 0.92, 0.91, 0.89}
	baseline := []float64{0.6, 0.5, 0.7, 0.65, 0.55}
	c, err := Compare(policy, baseline)
	if err != nil {
		t.Fatal(err)
	}
	if c.GainPercent <= 0 {
		t.Errorf("gain = %v, want > 0", c.GainPercent)
	}
	if c.ErrorBarReductionPercent <= 0 {
		t.Errorf("error-bar reduction = %v, want > 0 (policy is steadier)",
			c.ErrorBarReductionPercent)
	}
	if c.MeanPolicy <= c.MeanBaseline {
		t.Errorf("MeanPolicy %v should exceed MeanBaseline %v",
			c.MeanPolicy, c.MeanBaseline)
	}
	if s := c.String(); s == "" {
		t.Error("String should be non-empty")
	}
}

func TestCompareEmpty(t *testing.T) {
	if _, err := Compare(nil, []float64{1}); err == nil {
		t.Error("empty policy should error")
	}
	if _, err := Compare([]float64{1}, nil); err == nil {
		t.Error("empty baseline should error")
	}
}

// TestBalanceIndexRoundsEachSquare: Go may fuse sumSq += t*t into one
// multiply-add on arm64, ppc64le, s390x and riscv64, which skips the
// rounding of t*t, and Algorithm 1 ranks its candidates by this index, so
// one ULP flips placements. On loads where the fused and the rounded sums
// differ, BalanceIndex must return the rounded one, as amd64 computes it.
func TestBalanceIndexRoundsEachSquare(t *testing.T) {
	loads := []float64{1.1, 2.2, 3.3}
	index := func(square func(x, sumSq float64) float64) float64 {
		var sum, sumSq float64
		for _, x := range loads {
			sum += x
			sumSq = square(x, sumSq)
		}
		return sum * sum / (float64(len(loads)) * sumSq)
	}
	rounded := index(func(x, sumSq float64) float64 { return sumSq + float64(x*x) })
	fused := index(func(x, sumSq float64) float64 { return math.FMA(x, x, sumSq) })
	if rounded == fused {
		t.Fatalf("loads %v: the fused and rounded forms agree (%v), so they test nothing", loads, rounded)
	}
	got, err := BalanceIndex(loads)
	if err != nil {
		t.Fatal(err)
	}
	if got != rounded {
		t.Errorf("BalanceIndex(%v) = %v, want the rounded form %v (fused: %v)", loads, got, rounded, fused)
	}
}
