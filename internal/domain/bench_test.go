package domain

import (
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// benchUsers is the resident population grid.
var benchUsers = []int{10_000, 100_000}

const benchAPCount = 256

// newBenchDomain builds a domain with nAPs APs and `users` resident
// associations spread across them.
func newBenchDomain(tb testing.TB, nAPs, users int) (*Domain, []trace.APID) {
	tb.Helper()
	d := New(Config{})
	aps := make([]trace.APID, nAPs)
	for i := range aps {
		aps[i] = trace.APID(fmt.Sprintf("ap%03d", i))
		if err := d.AddAP(aps[i], 1e9); err != nil {
			tb.Fatal(err)
		}
	}
	ps := make([]Placement, 0, 1024)
	for i := 0; i < users; i++ {
		ps = append(ps, Placement{
			User:      trace.UserID(fmt.Sprintf("resident%06d", i)),
			AP:        aps[i%nAPs],
			DemandBps: 1000,
		})
		if len(ps) == cap(ps) {
			if _, err := d.Commit(ps, nil); err != nil {
				tb.Fatal(err)
			}
			ps = ps[:0]
		}
	}
	if len(ps) > 0 {
		if _, err := d.Commit(ps, nil); err != nil {
			tb.Fatal(err)
		}
	}
	return d, aps
}

// benchDomainCommit measures the domain lock under contention: eight
// workers on two cores each churn their own user across the AP ring, one
// forced single-placement commit plus the matching leave per op, every
// one serialized on the one lock. Neither should allocate, and the cost
// must not grow with the resident population.
func benchDomainCommit(b *testing.B, users int) {
	d, aps := newBenchDomain(b, benchAPCount, users)
	var ctr atomic.Int64
	b.ReportAllocs()
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := ctr.Add(1)
		u := trace.UserID(fmt.Sprintf("worker%03d", id))
		i := int(id)
		for pb.Next() {
			ap := aps[i%benchAPCount]
			i++
			if _, err := d.Commit([]Placement{{User: u, AP: ap, DemandBps: 500}}, nil); err != nil {
				b.Error(err)
				return
			}
			d.Leave(u, ap, 500)
		}
	})
}

func BenchmarkDomainCommit(b *testing.B) {
	for _, users := range benchUsers {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			benchDomainCommit(b, users)
		})
	}
}

// BenchmarkDomainViews measures view-snapshot assembly — the read side
// of every policy decision — on 64 APs at 1k and 100k residents. The
// snapshot holds aggregates only, so the two must cost the same.
func BenchmarkDomainViews(b *testing.B) {
	const nAPs = 64
	for _, users := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("residents=%d", users), func(b *testing.B) {
			d, _ := newBenchDomain(b, nAPs, users)
			var buf ViewBuf
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.ViewsInto("bench-user", &buf)
				if len(buf.Views()) != nAPs {
					b.Fatalf("views = %d", len(buf.Views()))
				}
			}
		})
	}
}
