package runner

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func seq(n int) []int {
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	return items
}

// TestMapDeterministic: the same seeded-RNG workload must produce
// byte-identical results on one worker and on eight.
func TestMapDeterministic(t *testing.T) {
	run := func(workers int) []float64 {
		out, err := Map(Config{Workers: workers, Label: "det"}, seq(40),
			func(item int) (float64, error) {
				// Consume a generator seeded from the item heavily:
				// order-sensitive if results followed scheduling.
				rng, v := rand.New(rand.NewSource(int64(item)+42)), 0.0
				for k := 0; k < 100; k++ {
					v += rng.Float64()
				}
				return v + float64(item), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	parallel := run(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("slot %d: serial %v != parallel %v", i, serial[i], parallel[i])
		}
	}
}

// TestLowestIndexError: with many workers, the reported error must be
// the lowest-indexed failure — the one a serial run would surface.
func TestLowestIndexError(t *testing.T) {
	errA := errors.New("boom-3")
	for _, workers := range []int{1, 8} {
		_, err := Map(Config{Workers: workers}, seq(16), func(i int) (int, error) {
			switch i {
			case 3:
				return 0, errA
			case 9:
				return 0, errors.New("boom-9")
			}
			return i, nil
		})
		if err == nil || !errors.Is(err, errA) {
			t.Errorf("workers=%d: err = %v, want wrapped %v", workers, err, errA)
		}
	}
}

func TestStopsDispatchAfterError(t *testing.T) {
	var started atomic.Int64
	_, err := Map(Config{Workers: 2}, seq(100), func(i int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, errors.New("immediate")
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if n := started.Load(); n == 100 {
		t.Error("dispatch did not stop after failure")
	}
}

func TestPanicBecomesError(t *testing.T) {
	_, err := Map(Config{Workers: 2}, []string{"explode"}, func(string) (int, error) {
		panic("kaboom")
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("err = %v, want panic message", err)
	}
}

func TestProgressAndReport(t *testing.T) {
	var buf bytes.Buffer
	_, err := Map(Config{Workers: 2, Progress: &buf, Label: "grid"}, seq(3),
		func(i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "[grid]"); got != 3 {
		t.Errorf("progress lines = %d, want 3\n%s", got, buf.String())
	}
	if !strings.Contains(buf.String(), "3/3") {
		t.Errorf("missing final progress line:\n%s", buf.String())
	}
	for _, name := range []string{"grid[0]", "grid[1]", "grid[2]"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("no progress line names %s:\n%s", name, buf.String())
		}
	}
}

func TestEmptyAndNil(t *testing.T) {
	out, err := Map(Config{}, []int{}, func(int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Errorf("empty map: %v %v", err, out)
	}
	if out, err := Map[int, int](Config{}, nil, nil); err != nil || len(out) != 0 {
		t.Errorf("nil items: %v %v", err, out)
	}
	if _, err := Map[int, int](Config{}, []int{1}, nil); err == nil {
		t.Error("nil f should error")
	}
}

func TestMapError(t *testing.T) {
	_, err := Map(Config{Workers: 4, Label: "m"}, []int{0, 1, 2, 3},
		func(item int) (int, error) {
			if item == 2 {
				return 0, errors.New("cell failed")
			}
			return item, nil
		})
	if err == nil || !strings.Contains(err.Error(), "cell failed") {
		t.Errorf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "m[2]") {
		t.Errorf("error should name the failing cell: %v", err)
	}
}
