package synth

import "testing"

// BenchmarkGenerate is one default campus (27 000 sessions, 388 000 flows)
// from configuration to sorted trace, the seed rotating over three values
// so no single draw sequence is what gets tuned.
func BenchmarkGenerate(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(1 + i%3)
		if _, _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
