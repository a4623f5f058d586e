package runner

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapDeterministic: the same seeded-RNG workload must produce
// byte-identical results on one worker and on eight.
func TestMapDeterministic(t *testing.T) {
	items := make([]int, 40)
	for i := range items {
		items[i] = i
	}
	run := func(workers int) []float64 {
		out, _, err := Map(Config{Workers: workers, Seed: 42, Label: "det"},
			items, func(c *Ctx, item int) (float64, error) {
				// Consume a generator seeded from the task's seed heavily:
				// order-sensitive if seeds followed scheduling.
				rng, v := rand.New(rand.NewSource(c.Seed)), 0.0
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

func TestDeriveSeedStable(t *testing.T) {
	if DeriveSeed(1, 0) != DeriveSeed(1, 0) {
		t.Error("DeriveSeed not stable")
	}
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		s := DeriveSeed(7, i)
		if seen[s] {
			t.Fatalf("seed collision at index %d", i)
		}
		seen[s] = true
	}
	if DeriveSeed(1, 3) == DeriveSeed(2, 3) {
		t.Error("different bases should give different seeds")
	}
}

func TestTaskSeedOverride(t *testing.T) {
	var got int64
	_, err := Run(Config{Workers: 2}, []Task{{
		Name: "seeded",
		Seed: 99,
		Run: func(c *Ctx) error {
			got = c.Seed
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Errorf("ctx seed = %d, want 99", got)
	}
}

// TestLowestIndexError: with many workers, the reported error must be
// the lowest-indexed failure — the one a serial run would surface.
func TestLowestIndexError(t *testing.T) {
	errA := errors.New("boom-3")
	tasks := make([]Task, 16)
	for i := range tasks {
		i := i
		tasks[i] = Task{
			Name: fmt.Sprintf("t%d", i),
			Run: func(*Ctx) error {
				switch i {
				case 3:
					return errA
				case 9:
					return errors.New("boom-9")
				}
				return nil
			},
		}
	}
	for _, workers := range []int{1, 8} {
		_, err := Run(Config{Workers: workers}, tasks)
		if err == nil || !errors.Is(err, errA) {
			t.Errorf("workers=%d: err = %v, want wrapped %v", workers, err, errA)
		}
	}
}

func TestStopsDispatchAfterError(t *testing.T) {
	var started atomic.Int64
	tasks := make([]Task, 100)
	for i := range tasks {
		i := i
		tasks[i] = Task{Run: func(*Ctx) error {
			started.Add(1)
			if i == 0 {
				return errors.New("immediate")
			}
			time.Sleep(time.Millisecond)
			return nil
		}}
	}
	if _, err := Run(Config{Workers: 2}, tasks); err == nil {
		t.Fatal("want error")
	}
	if n := started.Load(); n == 100 {
		t.Error("dispatch did not stop after failure")
	}
}

func TestPanicBecomesError(t *testing.T) {
	_, err := Run(Config{Workers: 2}, []Task{{
		Name: "explode",
		Run:  func(*Ctx) error { panic("kaboom") },
	}})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("err = %v, want panic message", err)
	}
}

func TestProgressAndReport(t *testing.T) {
	var buf bytes.Buffer
	report, err := Run(Config{Workers: 2, Progress: &buf, Label: "grid"}, []Task{
		{Name: "a", Run: func(*Ctx) error { return nil }},
		{Name: "b", Run: func(*Ctx) error { return nil }},
		{Name: "c", Run: func(*Ctx) error { return nil }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "[grid]"); got != 3 {
		t.Errorf("progress lines = %d, want 3\n%s", got, buf.String())
	}
	if !strings.Contains(buf.String(), "3/3") {
		t.Errorf("missing final progress line:\n%s", buf.String())
	}
	if len(report.Tasks) != 3 || report.Workers != 2 {
		t.Errorf("report = %+v", report)
	}
	if report.TotalTaskTime() < 0 || report.Wall <= 0 {
		t.Errorf("durations: wall=%v total=%v", report.Wall, report.TotalTaskTime())
	}
	if !strings.Contains(report.Render(), "3 tasks on 2 workers") {
		t.Errorf("Render = %q", report.Render())
	}
}

func TestEmptyAndNil(t *testing.T) {
	report, err := Run(Config{}, nil)
	if err != nil || len(report.Tasks) != 0 {
		t.Errorf("empty run: %v %+v", err, report)
	}
	if _, err := Run(Config{}, []Task{{Name: "nil-run"}}); err == nil {
		t.Error("nil Run func should error")
	}
	out, _, err := Map(Config{}, []int{}, func(*Ctx, int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Errorf("empty map: %v %v", err, out)
	}
}

func TestMapError(t *testing.T) {
	_, _, err := Map(Config{Workers: 4, Label: "m"}, []int{0, 1, 2, 3},
		func(c *Ctx, item int) (int, error) {
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
