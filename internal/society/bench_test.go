package society

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// benchSessions builds a day of sessions on a handful of APs.
func benchSessions(n int) []trace.Session {
	rng := rand.New(rand.NewSource(3))
	out := make([]trace.Session, 0, n)
	for i := 0; i < n; i++ {
		start := int64(rng.Intn(86400))
		out = append(out, trace.Session{
			User:         trace.UserID(fmt.Sprintf("u%03d", rng.Intn(200))),
			AP:           trace.APID(fmt.Sprintf("ap%d", rng.Intn(8))),
			ConnectAt:    start,
			DisconnectAt: start + int64(600+rng.Intn(7200)),
			Bytes:        int64(rng.Intn(1 << 20)),
		})
	}
	return out
}

func BenchmarkExtractCoLeavings(b *testing.B) {
	sessions := benchSessions(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExtractCoLeavings(sessions, 300)
	}
}

func BenchmarkExtractEncounters(b *testing.B) {
	sessions := benchSessions(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExtractEncounters(sessions, 600)
	}
}
