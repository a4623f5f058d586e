package experiments

import (
	"strings"
	"testing"

	"github.com/s3wlan/s3wlan/internal/runner"
)

func TestAblationBaselines(t *testing.T) {
	d := prepareSmall(t)
	res, err := AblationBaselines(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Policies) != 5 || len(res.Means) != 5 {
		t.Fatalf("panel size = %d", len(res.Policies))
	}
	for i, m := range res.Means {
		if m <= 0 || m > 1 {
			t.Errorf("%s mean = %v out of range", res.Policies[i], m)
		}
	}
	// S³ must beat the stale-load LLF baseline.
	for i, p := range res.Policies {
		if p == "LLF" && res.S3Mean <= res.Means[i] {
			t.Errorf("S3 (%v) should beat LLF (%v)", res.S3Mean, res.Means[i])
		}
	}
	if !strings.Contains(res.Render(), "baseline panel") {
		t.Error("Render missing title")
	}
}

func TestAblationStaleness(t *testing.T) {
	d := prepareSmall(t)
	res, err := AblationStaleness(d, []int64{0, 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.S3Means) != 2 || len(res.LLFMeans) != 2 {
		t.Fatalf("result shape wrong: %+v", res)
	}
	// Staleness hurts LLF much more than S³: the gain at 300s must
	// exceed the gain with live load.
	gainLive := res.S3Means[0] - res.LLFMeans[0]
	gainStale := res.S3Means[1] - res.LLFMeans[1]
	if gainStale <= gainLive {
		t.Errorf("stale gain (%v) should exceed live gain (%v)",
			gainStale, gainLive)
	}
	if !strings.Contains(res.Render(), "staleness") {
		t.Error("Render missing title")
	}
}

func TestAblationGuard(t *testing.T) {
	d := prepareSmall(t)
	res, err := AblationGuard(d, []float64{0.1, 0.5, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Means) != 3 {
		t.Fatalf("means = %v", res.Means)
	}
	for _, m := range res.Means {
		if m <= 0 || m > 1 {
			t.Errorf("mean %v out of range", m)
		}
	}
	if !strings.Contains(res.Render(), "balance guard") {
		t.Error("Render missing title")
	}
}

func TestAblationBatchWindow(t *testing.T) {
	d := prepareSmall(t)
	res, err := AblationBatchWindow(d, []int64{0, 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Means) != 2 {
		t.Fatalf("means = %v", res.Means)
	}
	if !strings.Contains(res.Render(), "batch window") {
		t.Error("Render missing title")
	}
}

func TestMetricPanel(t *testing.T) {
	d := prepareSmall(t)
	res, err := MetricPanel(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != 4 || len(res.S3) != 4 || len(res.LLF) != 4 {
		t.Fatalf("panel shape: %+v", res)
	}
	// S³ should win under every fairness metric, not just Chiu–Jain.
	for i, name := range res.Metrics {
		s3Wins := res.S3[i] > res.LLF[i]
		if name == "gini" {
			s3Wins = res.S3[i] < res.LLF[i]
		}
		if !s3Wins {
			t.Errorf("metric %s: S3 %.4f vs LLF %.4f — S3 should win",
				name, res.S3[i], res.LLF[i])
		}
	}
	if !strings.Contains(res.Render(), "fairness-metric panel") {
		t.Error("Render missing title")
	}
}

func TestReplicateFig12(t *testing.T) {
	res, err := ReplicateFig12(smallCampus(), 9, []int64{1, 2, 3}, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Gains) != 3 {
		t.Fatalf("gains = %v", res.Gains)
	}
	// S³ should win on every seed at this configuration.
	if res.Wins != 3 {
		t.Errorf("wins = %d/3 (gains %v)", res.Wins, res.Gains)
	}
	if res.MeanGain <= 0 {
		t.Errorf("mean gain = %v, want positive", res.MeanGain)
	}
	if !strings.Contains(res.Render(), "replicated") {
		t.Error("Render missing title")
	}
	if _, err := ReplicateFig12(smallCampus(), 9, nil, runner.Config{}); err == nil {
		t.Error("no seeds should error")
	}
}
