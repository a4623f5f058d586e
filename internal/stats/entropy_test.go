package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want []float64
	}{
		{"simple", []float64{1, 1, 2}, []float64{0.25, 0.25, 0.5}},
		{"zero", []float64{0, 0}, []float64{0, 0}},
		{"single", []float64{7}, []float64{1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Normalize(tt.in)
			for i := range tt.want {
				if !almostEqual(got[i], tt.want[i], 1e-12) {
					t.Fatalf("Normalize = %v, want %v", got, tt.want)
				}
			}
		})
	}
}

func TestNormalizeDoesNotMutate(t *testing.T) {
	in := []float64{2, 2}
	Normalize(in)
	if in[0] != 2 {
		t.Error("Normalize mutated its input")
	}
}

func TestEntropy(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"deterministic", []float64{1, 0, 0}, 0},
		{"uniform2", []float64{0.5, 0.5}, 1},
		{"uniform4", []float64{0.25, 0.25, 0.25, 0.25}, 2},
		{"skewed", []float64{0.75, 0.25}, 0.8112781244591328},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Entropy(tt.in); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Entropy(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestJointMaxDiagonalMarginals(t *testing.T) {
	p := []float64{0.5, 0.3, 0.2}
	q := []float64{0.2, 0.5, 0.3}
	joint, err := JointMaxDiagonal(p, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p {
		var row, col float64
		for j := range q {
			row += joint[i][j]
			col += joint[j][i]
		}
		if !almostEqual(row, p[i], 1e-12) {
			t.Errorf("row %d marginal = %v, want %v", i, row, p[i])
		}
		if !almostEqual(col, q[i], 1e-12) {
			t.Errorf("col %d marginal = %v, want %v", i, col, q[i])
		}
	}
}

func TestJointMaxDiagonalIdentical(t *testing.T) {
	p := []float64{0.4, 0.4, 0.2}
	joint, err := JointMaxDiagonal(p, p)
	if err != nil {
		t.Fatal(err)
	}
	// Identical marginals put all mass on the diagonal.
	for i := range p {
		for j := range p {
			want := 0.0
			if i == j {
				want = p[i]
			}
			if !almostEqual(joint[i][j], want, 1e-12) {
				t.Fatalf("joint[%d][%d] = %v, want %v", i, j, joint[i][j], want)
			}
		}
	}
}

func TestJointMaxDiagonalDimensionMismatch(t *testing.T) {
	if _, err := JointMaxDiagonal([]float64{1}, []float64{0.5, 0.5}); err == nil {
		t.Error("expected dimension mismatch error")
	}
}

func TestMutualInformationIdenticalEqualsEntropy(t *testing.T) {
	p := []float64{3, 1, 4, 1, 5, 9}
	mi, err := MutualInformation(p, p)
	if err != nil {
		t.Fatal(err)
	}
	if h := Entropy(Normalize(p)); !almostEqual(mi, h, 1e-9) {
		t.Errorf("I(p;p) = %v, want H(p) = %v", mi, h)
	}
}

func TestMutualInformationDisjointIsZero(t *testing.T) {
	p := []float64{1, 1, 0, 0}
	q := []float64{0, 0, 1, 1}
	mi, err := MutualInformation(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(mi, 0, 1e-9) {
		t.Errorf("disjoint MI = %v, want 0", mi)
	}
}

func TestNMI(t *testing.T) {
	p := []float64{2, 3, 5}
	nmi, err := NMI(p, p)
	if err != nil || !almostEqual(nmi, 1, 1e-9) {
		t.Errorf("NMI(p,p) = %v, err = %v; want 1", nmi, err)
	}
	nmi, err = NMI([]float64{1, 0}, []float64{0, 1})
	if err != nil || !almostEqual(nmi, 0, 1e-9) {
		t.Errorf("NMI disjoint = %v, err = %v; want 0", nmi, err)
	}
	// Degenerate current-day profile: single category.
	nmi, err = NMI([]float64{1, 0}, []float64{1, 0})
	if err != nil || nmi != 1 {
		t.Errorf("NMI degenerate identical = %v, want 1", nmi)
	}
	nmi, err = NMI([]float64{1, 0}, []float64{0.5, 0.5})
	if err != nil || nmi != 0 {
		t.Errorf("NMI degenerate different = %v, want 0", nmi)
	}
	if _, err := NMI([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("NMI dimension mismatch should error")
	}
}

func TestNMIConvergesWithSimilarity(t *testing.T) {
	// As q moves toward p, NMI should increase.
	p := []float64{0.7, 0.2, 0.1}
	far := []float64{0.1, 0.2, 0.7}
	near := []float64{0.6, 0.25, 0.15}
	nmiFar, _ := NMI(p, far)
	nmiNear, _ := NMI(p, near)
	if nmiNear <= nmiFar {
		t.Errorf("NMI near (%v) should exceed NMI far (%v)", nmiNear, nmiFar)
	}
}

// TestAddVectors: summing JointMaxDiagonal's rows elementwise gives back
// the column marginal q, and vectors of two lengths are a dimension
// mismatch (AddVectors itself had no caller).
func TestAddVectors(t *testing.T) {
	p, q := []float64{0.5, 0.3, 0.2}, []float64{0.2, 0.2, 0.6}
	joint, err := JointMaxDiagonal(p, q)
	if err != nil {
		t.Fatal(err)
	}
	sum := make([]float64, len(q))
	for _, row := range joint {
		for j, x := range row {
			sum[j] += x
		}
	}
	if !vectorsEqual(sum, q) {
		t.Errorf("rows sum to %v, want the column marginal %v", sum, q)
	}
	if _, err := JointMaxDiagonal([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("err = %v, want ErrDimensionMismatch", err)
	}
}

// Property: 0 <= I(p;q) <= min(H(p), H(q)) and NMI in [0, 1] for random
// non-negative vectors.
func TestInformationBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func() bool {
		k := 2 + rng.Intn(6)
		p := make([]float64, k)
		q := make([]float64, k)
		for i := range p {
			p[i] = rng.Float64()
			q[i] = rng.Float64()
		}
		mi, err := MutualInformation(p, q)
		if err != nil {
			return false
		}
		hp := Entropy(Normalize(p))
		hq := Entropy(Normalize(q))
		if mi < 0 || mi > math.Min(hp, hq)+1e-9 {
			return false
		}
		nmi, err := NMI(p, q)
		if err != nil {
			return false
		}
		return nmi >= 0 && nmi <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
