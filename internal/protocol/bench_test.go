package protocol

import (
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/domain"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// The association E2E grid: 10k and 100k resident users.
var assocBenchUsers = []int{10_000, 100_000}

const assocBenchAPs = 64

// newBenchController builds a listening controller with assocBenchAPs
// registered APs and `users` resident associations. Residents are
// installed through direct domain commits and session-table writes:
// the benchmark measures an association against a populated domain, not
// populating one over the wire.
func newBenchController(tb testing.TB, users int) (*Controller, string) {
	tb.Helper()
	c, err := NewController(baseline.LLF{}, WithTimeout(testTimeout))
	if err != nil {
		tb.Fatal(err)
	}
	addr, err := c.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	aps := make([]trace.APID, assocBenchAPs)
	for i := range aps {
		aps[i] = trace.APID(fmt.Sprintf("ap%03d", i))
		if err := c.RegisterAP(aps[i], 1e9); err != nil {
			tb.Fatal(err)
		}
	}
	ps := make([]domain.Placement, 0, 1024)
	flush := func() {
		if len(ps) == 0 {
			return
		}
		if _, err := c.dom.Commit(ps, nil); err != nil {
			tb.Fatal(err)
		}
		c.mu.Lock()
		for _, p := range ps {
			c.sessions[p.User] = session{ap: p.AP, at: 1}
		}
		c.mu.Unlock()
		ps = ps[:0]
	}
	for i := 0; i < users; i++ {
		ps = append(ps, domain.Placement{
			User:      trace.UserID(fmt.Sprintf("resident%06d", i)),
			AP:        aps[i%assocBenchAPs],
			DemandBps: 1000,
		})
		if len(ps) == cap(ps) {
			flush()
		}
	}
	flush()
	return c, addr
}

// benchAssociateE2E measures one full association round trip — station
// sends MsgAssoc, the controller snapshots views, runs the policy,
// commits and replies MsgAssign — over a real TCP connection.
func benchAssociateE2E(b *testing.B, users int) {
	_, addr := newBenchController(b, users)
	st, err := DialStation(addr, "bench-station", testTimeout)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Associate(500); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Associate(500); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAssociateE2E(b *testing.B) {
	for _, users := range assocBenchUsers {
		b.Run(fmt.Sprintf("binary/users=%d", users), func(b *testing.B) {
			benchAssociateE2E(b, users)
		})
	}
}

// BenchmarkAssociateParallel is the concurrent decision path's number,
// which bench/ (one client per workload) does not have: eight goroutines
// on two cores each Associate and disassociate their own user against
// assocBenchAPs static APs under LLF, so selections overlap off-lock and
// every commit meets c.mu and the domain lock. retries/op is the share
// of decisions re-made after domain.ErrStale.
func BenchmarkAssociateParallel(b *testing.B) {
	for _, journaled := range []bool{false, true} {
		name := "unjournaled"
		if journaled {
			name = "journaled"
		}
		b.Run(name, func(b *testing.B) {
			var opts []ControllerOption
			if journaled {
				opts = append(opts, WithJournal(b.TempDir(), journal.Options{Fsync: journal.FsyncOff}))
			}
			c, err := NewController(baseline.LLF{}, opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			for i := 0; i < assocBenchAPs; i++ {
				if err := c.RegisterAP(trace.APID(fmt.Sprintf("ap%03d", i)), 1e9); err != nil {
					b.Fatal(err)
				}
			}
			var workers atomic.Int64
			retries := obsSelectRetries.Value()
			b.ReportAllocs()
			b.SetParallelism(4)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				u := trace.UserID(fmt.Sprintf("worker%03d", workers.Add(1)))
				for pb.Next() {
					if _, err := c.Associate(u, 500); err != nil {
						b.Error(err)
						return
					}
					c.disassociate(u)
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(obsSelectRetries.Value()-retries)/float64(b.N), "retries/op")
		})
	}
}
