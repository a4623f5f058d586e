package protocol

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/domain"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// The association E2E grid: both codecs at 10k and 100k resident users.
// CI emits it as BENCH_assoc.json via TestAssocBenchJSON.
var (
	assocBenchCodecs = []Codec{CodecBinary, CodecJSON}
	assocBenchUsers  = []int{10_000, 100_000}
)

const assocBenchAPs = 64

// newBenchController builds a listening controller with assocBenchAPs
// registered APs and `users` resident associations. Residents are
// installed through direct domain commits and assignment-table writes:
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
			c.assignments[p.User] = p.AP
			c.assignedAt[p.User] = 1
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
// commits and replies MsgAssign — over a real TCP connection speaking
// the given codec.
func benchAssociateE2E(b *testing.B, codec Codec, users int) {
	_, addr := newBenchController(b, users)
	st, err := DialStationCodec(defaultDial, addr, "bench-station", testTimeout, codec)
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
	for _, codec := range assocBenchCodecs {
		for _, users := range assocBenchUsers {
			b.Run(fmt.Sprintf("%s/users=%d", codec, users), func(b *testing.B) {
				benchAssociateE2E(b, codec, users)
			})
		}
	}
}

// TestAssocBenchJSON emits the association E2E grid (ns/op, B/op,
// allocs/op from testing.Benchmark plus a separately sampled p99
// round-trip latency) to the path named by ASSOC_BENCH_JSON. Skipped
// when unset so plain `go test` stays fast; CI points it at
// BENCH_assoc.json.
func TestAssocBenchJSON(t *testing.T) {
	path := os.Getenv("ASSOC_BENCH_JSON")
	if path == "" {
		t.Skip("ASSOC_BENCH_JSON not set")
	}
	type row struct {
		Name        string  `json:"name"`
		Codec       string  `json:"codec"`
		Users       int     `json:"users"`
		NsPerOp     float64 `json:"ns_per_op"`
		P99Ns       int64   `json:"p99_ns"`
		BytesPerOp  int64   `json:"bytes_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
		Ops         int     `json:"ops"`
	}
	out := struct {
		Benchmark string `json:"benchmark"`
		MaxProcs  int    `json:"gomaxprocs"`
		Rows      []row  `json:"rows"`
	}{Benchmark: "AssociateE2E", MaxProcs: runtime.GOMAXPROCS(0)}

	for _, codec := range assocBenchCodecs {
		for _, users := range assocBenchUsers {
			codec, users := codec, users
			r := testing.Benchmark(func(b *testing.B) {
				benchAssociateE2E(b, codec, users)
			})
			p99 := sampleAssocP99(t, codec, users)
			name := fmt.Sprintf("AssociateE2E/%s/users=%d", codec, users)
			out.Rows = append(out.Rows, row{
				Name:        name,
				Codec:       codec.String(),
				Users:       users,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				P99Ns:       p99.Nanoseconds(),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
				Ops:         r.N,
			})
			t.Logf("%s: %.0f ns/op, p99 %v, %d B/op, %d allocs/op (%d ops)",
				name, float64(r.T.Nanoseconds())/float64(r.N), p99,
				r.AllocedBytesPerOp(), r.AllocsPerOp(), r.N)
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

// sampleAssocP99 measures individual association round trips and
// returns the 99th-percentile latency.
func sampleAssocP99(t *testing.T, codec Codec, users int) time.Duration {
	t.Helper()
	const rounds = 1500
	_, addr := newBenchController(t, users)
	st, err := DialStationCodec(defaultDial, addr, "bench-station", testTimeout, codec)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 50; i++ { // warmup
		if _, err := st.Associate(500); err != nil {
			t.Fatal(err)
		}
	}
	samples := make([]time.Duration, rounds)
	for i := range samples {
		start := time.Now()
		if _, err := st.Associate(500); err != nil {
			t.Fatal(err)
		}
		samples[i] = time.Since(start)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[rounds*99/100]
}
