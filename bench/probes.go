package main

import (
	"bytes"
	"net"
	"runtime"
	"sort"
	"time"

	"github.com/s3wlan/s3wlan/internal/domain"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/protocol"
	"github.com/s3wlan/s3wlan/internal/socialgraph"
	"github.com/s3wlan/s3wlan/internal/society/incremental"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// Stand-alone probes: layers the program does not yet put spans around
// are timed by calling their public functions directly, on state shaped
// like the workload's.

// allocBytes is the bytes fn allocates.
func allocBytes(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc - a.TotalAlloc)
}

// probeDomain builds a domain holding the users of mid (a controller
// snapshot) on the driver's APs and times ViewsInto and a one-user move
// Commit on it. Times are medians in µs.
func probeDomain(drv *driver, mid map[trace.APID]protocol.APStatus) (viewsUS, commitUS, viewsAllocB float64, err error) {
	dom := domain.New(domain.Config{Mode: domain.LoadMax})
	aps := make([]trace.APID, 0, len(mid))
	for id := range mid {
		aps = append(aps, id)
	}
	sort.Slice(aps, func(i, j int) bool { return aps[i] < aps[j] })
	residents := 0
	for _, id := range aps {
		if err := dom.AddAP(id, drv.capacity[id]); err != nil {
			return 0, 0, 0, err
		}
		for _, u := range mid[id].Users {
			if _, err := dom.Commit([]domain.Placement{{User: u, AP: id, DemandBps: 1e3}}, nil); err != nil {
				return 0, 0, 0, err
			}
			residents++
		}
	}
	const probeUser = trace.UserID("probe-user")
	if _, err := dom.Commit([]domain.Placement{{User: probeUser, AP: aps[0], DemandBps: 1e3}}, nil); err != nil {
		return 0, 0, 0, err
	}
	// About 50 ms of probing whatever the population.
	iters := 4_000_000 / (residents + 200)
	if iters < 200 {
		iters = 200
	}
	var buf domain.ViewBuf
	dom.ViewsInto(probeUser, &buf) // grow the buffer to the working set
	views, commits := make([]int64, iters), make([]int64, iters)
	at := aps[0]
	for i := 0; i < iters; i++ {
		to := aps[(i+1)%len(aps)]
		t0 := time.Now()
		dom.ViewsInto(probeUser, &buf)
		t1 := time.Now()
		_, err := dom.Commit([]domain.Placement{{User: probeUser, AP: to, Prev: at, DemandBps: 1e3}}, buf.Version())
		t2 := time.Now()
		if err != nil {
			return 0, 0, 0, err
		}
		views[i], commits[i], at = int64(t1.Sub(t0)), int64(t2.Sub(t1)), to
	}
	viewsAllocB = allocBytes(func() {
		for i := 0; i < 100; i++ {
			dom.ViewsInto(probeUser, &buf)
		}
	}) / 100
	return percentile(views, 50) / 1e3, percentile(commits, 50) / 1e3, viewsAllocB, nil
}

// bufConn is an in-memory net.Conn: writes append to a buffer, reads
// drain it. One goroutine uses it, first to send, then to receive.
type bufConn struct{ bytes.Buffer }

func (*bufConn) Close() error                     { return nil }
func (*bufConn) LocalAddr() net.Addr              { return nil }
func (*bufConn) RemoteAddr() net.Addr             { return nil }
func (*bufConn) SetDeadline(time.Time) error      { return nil }
func (*bufConn) SetReadDeadline(time.Time) error  { return nil }
func (*bufConn) SetWriteDeadline(time.Time) error { return nil }

// batchedUS runs fn(batchSize) batches times and returns the median
// batch's time per item in µs, with the bytes allocated per item. A
// mean over one long loop would absorb whatever stall the host or the
// journal's background fsync adds; the median batch does not.
func batchedUS(batches, batchSize int, fn func(n int) error) (usPerItem, allocBPerItem float64, err error) {
	took := make([]float64, batches)
	alloc := allocBytes(func() {
		for b := 0; b < batches && err == nil; b++ {
			start := time.Now()
			err = fn(batchSize)
			took[b] = float64(time.Since(start)) / 1e3 / float64(batchSize)
		}
	})
	return median(took), alloc / float64(batches*batchSize), err
}

// probeCodec times the binary codec on the association exchange's two
// messages: encode + frame + CRC on send, the reverse on receive.
func probeCodec() (usPerMsg, allocBPerMsg float64, err error) {
	conn := protocol.NewConnCodec(&bufConn{}, ioTimeout, protocol.CodecBinary)
	msgs := [2]protocol.Message{
		{Type: protocol.MsgAssoc, User: "user-000123", DemandBps: 48_000},
		{Type: protocol.MsgAssign, User: "user-000123", AP: "ap-b03-2"},
	}
	return batchedUS(20, 1000, func(n int) error {
		for i := 0; i < n; i++ {
			if err := conn.Send(msgs[i%2]); err != nil {
				return err
			}
		}
		for i := 0; i < n; i++ {
			if _, err := conn.Receive(); err != nil {
				return err
			}
		}
		return nil
	})
}

// probeJournalAppend times Append of single-placement association
// records under the live workloads' journal policy.
func probeJournalAppend(dir string) (usPerRec, allocBPerRec float64, err error) {
	j, _, err := journal.Open(dir, journalOptions(nil, 0))
	if err != nil {
		return 0, 0, err
	}
	rec := journal.Record{Op: journal.OpAssoc, TS: 1_700_000_000,
		Placements: []journal.Placement{{User: "user-000123", AP: "ap-b03-2", Prev: "ap-b03-1", DemandBps: 48_000}}}
	usPerRec, allocBPerRec, err = batchedUS(20, 1000, func(n int) error {
		for i := 0; i < n; i++ {
			if err := j.Append(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	return usPerRec, allocBPerRec, err
}

// probeCover times a from-scratch clique cover of the engine's current
// θ-graph — what every refresh would cost without the incremental
// engine's dirty-component tracking.
func probeCover(e *incremental.Engine) float64 {
	g := e.Snapshot().Graph()
	start := time.Now()
	socialgraph.ExtractCliqueCover(g)
	return float64(time.Since(start)) / 1e6
}
