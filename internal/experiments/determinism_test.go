package experiments

import (
	"testing"

	"github.com/s3wlan/s3wlan/internal/runner"
)

// TestParallelDeterminism is the contract test for the runner migration:
// every sweep and ablation must render byte-identically whether it runs
// serially or fanned out over eight workers. The dataset is prepared once
// and shared read-only; each worker count gets its own shallow Data copy
// so the Workers field itself never races.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full ablation grid is slow")
	}
	base := prepareSmall(t)

	grid := []struct {
		name string
		run  func(d *Data) (string, error)
	}{
		{"fig10", func(d *Data) (string, error) {
			r, err := Fig10(d, []int64{60, 300}, []float64{0.3})
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"fig11", func(d *Data) (string, error) {
			r, err := Fig11(d, []int{1, 5, 9}, []float64{0.3})
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"fig12", func(d *Data) (string, error) {
			r, err := Fig12(d)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"baselines", func(d *Data) (string, error) {
			r, err := AblationBaselines(d)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"staleness", func(d *Data) (string, error) {
			r, err := AblationStaleness(d, []int64{0, 300})
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"guard", func(d *Data) (string, error) {
			r, err := AblationGuard(d, []float64{0.25, 1})
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"batch", func(d *Data) (string, error) {
			r, err := AblationBatchWindow(d, []int64{0, 60})
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"metric-panel", func(d *Data) (string, error) {
			r, err := MetricPanel(d)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
	}

	for _, cell := range grid {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			serial := *base
			serial.Workers = 1
			wantOut, err := cell.run(&serial)
			if err != nil {
				t.Fatalf("workers=1: %v", err)
			}
			parallel := *base
			parallel.Workers = 8
			gotOut, err := cell.run(&parallel)
			if err != nil {
				t.Fatalf("workers=8: %v", err)
			}
			if wantOut != gotOut {
				t.Errorf("workers=8 output differs from workers=1\nserial:\n%s\nparallel:\n%s", wantOut, gotOut)
			}
		})
	}
	// The seed replications fan out over the pool themselves, each
	// preparing its own small campus.
	t.Run("replicate-fig12", func(t *testing.T) {
		render := func(workers int) string {
			r, err := ReplicateFig12(smallCampus(), 9, []int64{1, 2, 3}, runner.Config{Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			return r.Render()
		}
		if serial, parallel := render(1), render(4); serial != parallel {
			t.Errorf("workers=4 output differs from workers=1\nserial:\n%s\nparallel:\n%s", serial, parallel)
		}
	})
}
