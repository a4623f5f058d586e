package experiments

import (
	"testing"

	"github.com/s3wlan/s3wlan/internal/core"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/synth"
)

// BenchmarkSimulateS3 is one S³ replay of the default campus's test
// days under RunS3Model — selector construction (the close-friend rows)
// included, training not: the unit a sweep pays once per cell.
func BenchmarkSimulateS3(b *testing.B) {
	d, err := Prepare(synth.DefaultConfig(), 28)
	if err != nil {
		b.Fatal(err)
	}
	model, err := society.Train(d.Train, d.Profiles, society.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.RunS3Model(model, core.DefaultSelectorConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrepare is what a sweep pays per seed before its first figure:
// generate the default campus, split it at day 28, build the training
// profiles and the demand estimator.
func BenchmarkPrepare(b *testing.B) {
	campus := synth.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		campus.Seed = int64(1 + i%3)
		if _, err := Prepare(campus, 28); err != nil {
			b.Fatal(err)
		}
	}
}
