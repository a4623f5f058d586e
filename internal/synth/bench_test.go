package synth

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// BenchmarkGenerate is one default campus (27 000 sessions, 388 000 flows)
// from configuration to sorted trace, the seed rotating over three values
// so no single draw sequence is what gets tuned. Compare it at
// GOMAXPROCS=1: ≈ 55 ms on a 2-core Xeon VM (go1.24), ≈ 92 ms while
// sortFlows ran pdqsort over a 16-byte key per flow. B/flow is what the
// campuses allocated over the flows they hold, the figure a larger campus
// is sized by: 123.7 (138.3 with the keys); TestGenerateAllocBudget holds
// it under 130.
func BenchmarkGenerate(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	flows := 0
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(1 + i%3)
		tr, _, err := Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		flows += len(tr.Flows)
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(flows), "B/flow")
}

// BenchmarkDayMood is one per-(user, day) mood, a reseed and about six
// normal draws, walking a default campus's 600 users day by day.
func BenchmarkDayMood(b *testing.B) {
	users := make([]trace.UserID, DefaultConfig().Users)
	for i := range users {
		users[i] = trace.UserID(fmt.Sprintf("user-%04d", i))
	}
	rng := rand.New(new(moodSource))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dayMood(rng, 1, users[i%len(users)], i/len(users))
	}
}
