package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/s3wlan/s3wlan/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// figsSmall prints every paper-facing number of the small campus at
// %.12g: the Fig 10 and Fig 11 matrices, the Fig 12 gain and the
// baseline panel.
func figsSmall(d *Data) (string, error) {
	var sb strings.Builder
	f10, err := Fig10(d, nil, nil)
	if err != nil {
		return "", err
	}
	for a, alpha := range f10.Alphas {
		for i, iv := range f10.Intervals {
			fmt.Fprintf(&sb, "fig10 alpha=%v interval=%d %.12g\n", alpha, iv, f10.Mean[a][i])
		}
	}
	f11, err := Fig11(d, []int{1, 3, 5, 7, 9}, nil)
	if err != nil {
		return "", err
	}
	for a, alpha := range f11.Alphas {
		for i, hd := range f11.HistoryDays {
			fmt.Fprintf(&sb, "fig11 alpha=%v history=%d %.12g\n", alpha, hd, f11.Mean[a][i])
		}
	}
	f12, err := Fig12(d)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "fig12 gain_percent %.12g\n", f12.GainPercent)
	base, err := AblationBaselines(d)
	if err != nil {
		return "", err
	}
	for i, p := range base.Policies {
		fmt.Fprintf(&sb, "baseline %s %.12g\n", p, base.Means[i])
	}
	fmt.Fprintf(&sb, "baseline S3 %.12g\n", base.S3Mean)
	return sb.String(), nil
}

// ablationsSmall prints every value of the staleness, guard, batch-window,
// baseline-panel and metric-panel ablations at their default sweeps, at
// %.12g.
func ablationsSmall(d *Data) (string, error) {
	var sb strings.Builder
	st, err := AblationStaleness(d, nil)
	if err != nil {
		return "", err
	}
	for i, iv := range st.IntervalsSeconds {
		fmt.Fprintf(&sb, "staleness interval=%d S3 %.12g LLF %.12g\n", iv, st.S3Means[i], st.LLFMeans[i])
	}
	guard, err := AblationGuard(d, nil)
	if err != nil {
		return "", err
	}
	for i, g := range guard.Guards {
		fmt.Fprintf(&sb, "guard %v %.12g\n", g, guard.Means[i])
	}
	batch, err := AblationBatchWindow(d, nil)
	if err != nil {
		return "", err
	}
	for i, w := range batch.WindowsSeconds {
		fmt.Fprintf(&sb, "batch window=%d %.12g\n", w, batch.Means[i])
	}
	base, err := AblationBaselines(d)
	if err != nil {
		return "", err
	}
	for i, p := range base.Policies {
		fmt.Fprintf(&sb, "baseline %s %.12g\n", p, base.Means[i])
	}
	fmt.Fprintf(&sb, "baseline S3 %.12g\n", base.S3Mean)
	panel, err := MetricPanel(d)
	if err != nil {
		return "", err
	}
	for i, m := range panel.Metrics {
		fmt.Fprintf(&sb, "metric %s S3 %.12g LLF %.12g\n", m, panel.S3[i], panel.LLF[i])
	}
	return sb.String(), nil
}

// TestFigsSmallGolden pins the paper-facing numbers of the
// 150-user/3-building/12-day campus (9 training days), and every ablation
// value of smallCampus (9 training days), so a refactor of the training,
// sweep or ablation code cannot shift them silently, for one worker and
// for four. Regenerate with `go test ./internal/experiments -run
// TestFigsSmallGolden -update` only when a number is meant to move.
func TestFigsSmallGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 67 simulations twice")
	}
	figsCampus := synth.DefaultConfig()
	figsCampus.Users, figsCampus.Buildings, figsCampus.Days = 150, 3, 12
	for _, pin := range []struct {
		file   string
		campus synth.Config
		print  func(*Data) (string, error)
	}{
		{"figs_small.golden", figsCampus, figsSmall},
		{"ablations_small.golden", smallCampus(), ablationsSmall},
	} {
		d, err := Prepare(pin.campus, 9)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", pin.file)
		for _, workers := range []int{1, 4} {
			d.Workers = workers
			got, err := pin.print(d)
			if err != nil {
				t.Fatalf("%s, workers=%d: %v", pin.file, workers, err)
			}
			if *updateGolden && workers == 1 {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("workers=%d: output differs from %s\ngot:\n%swant:\n%s", workers, path, got, want)
			}
		}
	}
}
