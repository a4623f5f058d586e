package experiments

import (
	"runtime"
	"testing"
	"time"

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

// BenchmarkPreparePaper prepares the paper-scale campus (synth's "paper"
// preset: 12 374 users, 330 APs, 90 days, ≈ 22.8 M flows drawn) on its
// first 28 days, once per iteration, and reports the peak HeapInuse that
// ReadMemStats saw every 20 ms. Tier-1 runs no benchmarks; -short skips
// it. Run it alone with make paper-scale.
func BenchmarkPreparePaper(b *testing.B) {
	if testing.Short() {
		b.Skip("paper scale: minutes and hundreds of MB")
	}
	campus, err := synth.Preset("paper")
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	done, peak := make(chan struct{}), make(chan uint64)
	go func() {
		var ms runtime.MemStats
		var top uint64
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			top = max(top, ms.HeapInuse)
			select {
			case <-done:
				peak <- top
				return
			case <-tick.C:
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Prepare(campus, 28); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(done)
	b.ReportMetric(float64(<-peak)/(1<<20), "peak-heap-MiB")
}
