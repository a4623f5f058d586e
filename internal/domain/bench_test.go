package domain

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// benchShards and benchUsers define the published sharding grid: ns/op
// for 1, 4 and 16 shards at 10k and 100k resident users. The CI step
// emits the grid as BENCH_domain.json via TestDomainBenchJSON.
var (
	benchShards = []int{1, 4, 16}
	benchUsers  = []int{10_000, 100_000}
)

const benchAPCount = 256

// newBenchDomain builds a domain with nAPs APs and `users` resident
// associations spread across them.
func newBenchDomain(tb testing.TB, shards, nAPs, users int) (*Domain, []trace.APID) {
	tb.Helper()
	d := New(Config{Shards: shards})
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

// benchDomainCommit measures concurrent single-shard associations: each
// worker churns its own user across the AP ring, one forced single-
// placement commit plus the matching leave per op. With one shard every
// worker serializes on one lock; with 16 shards disjoint decisions
// proceed in parallel — the throughput ratio is the sharding win.
func benchDomainCommit(b *testing.B, shards, users int) {
	d, aps := newBenchDomain(b, shards, benchAPCount, users)
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
	for _, shards := range benchShards {
		for _, users := range benchUsers {
			b.Run(fmt.Sprintf("shards=%d/users=%d", shards, users), func(b *testing.B) {
				benchDomainCommit(b, shards, users)
			})
		}
	}
}

// BenchmarkDomainViews measures view-snapshot assembly — the read side
// of every policy decision — on 64 APs at 1k and 100k residents. The
// snapshot holds aggregates only, so the two must cost the same.
func BenchmarkDomainViews(b *testing.B) {
	const nAPs = 64
	for _, users := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("residents=%d", users), func(b *testing.B) {
			d, _ := newBenchDomain(b, 1, nAPs, users)
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

// TestDomainBenchJSON emits the sharding grid as machine-readable JSON
// (ns/op for every shards×users cell) to the path named by the
// DOMAIN_BENCH_JSON environment variable. Skipped when unset, so plain
// `go test` stays fast; CI points it at BENCH_domain.json.
func TestDomainBenchJSON(t *testing.T) {
	path := os.Getenv("DOMAIN_BENCH_JSON")
	if path == "" {
		t.Skip("DOMAIN_BENCH_JSON not set")
	}
	type row struct {
		Name    string  `json:"name"`
		Shards  int     `json:"shards"`
		Users   int     `json:"users"`
		NsPerOp float64 `json:"ns_per_op"`
		Ops     int     `json:"ops"`
	}
	out := struct {
		Benchmark string `json:"benchmark"`
		MaxProcs  int    `json:"gomaxprocs"`
		Rows      []row  `json:"rows"`
	}{Benchmark: "DomainCommit", MaxProcs: runtime.GOMAXPROCS(0)}
	for _, shards := range benchShards {
		for _, users := range benchUsers {
			shards, users := shards, users
			r := testing.Benchmark(func(b *testing.B) {
				benchDomainCommit(b, shards, users)
			})
			out.Rows = append(out.Rows, row{
				Name:    fmt.Sprintf("DomainCommit/shards=%d/users=%d", shards, users),
				Shards:  shards,
				Users:   users,
				NsPerOp: float64(r.T.Nanoseconds()) / float64(r.N),
				Ops:     r.N,
			})
			t.Logf("shards=%d users=%d: %.0f ns/op (%d ops)",
				shards, users, float64(r.T.Nanoseconds())/float64(r.N), r.N)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
