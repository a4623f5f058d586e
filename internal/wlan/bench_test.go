package wlan

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
)

func benchTrace(nSessions int) *trace.Trace {
	rng := rand.New(rand.NewSource(9))
	topo := trace.Topology{}
	for b := 0; b < 4; b++ {
		for a := 0; a < 4; a++ {
			topo.APs = append(topo.APs, trace.AP{
				ID:         trace.APID(fmt.Sprintf("ap-%d-%d", b, a)),
				Controller: trace.ControllerID(fmt.Sprintf("c%d", b)),
			})
		}
	}
	tr := &trace.Trace{Topology: topo}
	for i := 0; i < nSessions; i++ {
		start := int64(rng.Intn(86400))
		tr.Sessions = append(tr.Sessions, trace.Session{
			User:         trace.UserID(fmt.Sprintf("u%03d", rng.Intn(300))),
			AP:           topo.APs[0].ID,
			Controller:   trace.ControllerID(fmt.Sprintf("c%d", rng.Intn(4))),
			ConnectAt:    start,
			DisconnectAt: start + int64(600+rng.Intn(3600)),
			Bytes:        int64(rng.Intn(1 << 22)),
		})
	}
	return tr
}

func BenchmarkSimulate10k(b *testing.B) {
	tr := benchTrace(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(tr, Config{
			SelectorFor: func(trace.ControllerID, []trace.AP) Selector { return llf{} },
		}); err != nil {
			b.Fatal(err)
		}
	}
}
