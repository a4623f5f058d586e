package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/protocol"
	"github.com/s3wlan/s3wlan/internal/trace"
)

func init() {
	register(workload{
		name: "dense100k",
		why: "100 000 residents on 64 APs under LLF, persistent stations re-associating: " +
			"domain view assembly (O(residents)) dominates, society does nothing; set-up is warm-restart time",
		setup: setupDense,
	})
}

const (
	denseOpsPerSecond = 3900
	denseAPs          = 64
	denseResidents    = 100000
	denseStations     = 16
	denseCapacityBps  = 200e6
)

type dense struct {
	dir      string
	ctl      *protocol.Controller
	clock    *atomic.Int64
	drv      *driver
	ops      []op
	aps      []trace.APID
	departed *barrier

	recoverMS, recoverAllocMB float64
	endSnapshot, mid          map[trace.APID]protocol.APStatus
	probeDir                  string
}

// denseController runs without periodic checkpoints: one checkpoint of
// 100 000 residents is a ~10 MB atomic file write (≈220 ms here, the
// sandbox's disk), and at the shipped cadence of one per 1024 records it
// takes as long as the 1024 decisions between them — the workload would
// stop measuring view assembly.
func denseController(dir string, clock *atomic.Int64, departed *barrier, tr *tracer) (*protocol.Controller, error) {
	return protocol.NewController(traceSelector(baseline.LLF{}, "baseline", tr),
		protocol.WithObserver(newBarrierObserver(nil, departed, tr)),
		protocol.WithClock(clock.Load),
		protocol.WithJournal(dir, journalOptions(tr, 0)),
		protocol.WithTimeout(serverTimeout))
}

func setupDense(e *env) (world, error) {
	residents, stations := denseResidents, denseStations
	if e.tiny {
		residents = 2000
	}
	rng := rand.New(rand.NewSource(e.seed))
	w := &dense{dir: e.dir, probeDir: e.probeDir, clock: new(atomic.Int64), departed: newBarrier()}
	const t0 = 1_700_000_000
	w.clock.Store(t0)

	// The resident population is written as the journal a long-running
	// controller would have left behind, and the controller is built by
	// recovering it: set-up time here is warm-restart time.
	users := make([]trace.UserID, residents)
	capacity := make(map[trace.APID]float64, denseAPs)
	j, _, err := journal.Open(e.dir, journalOptions(nil, 0))
	if err != nil {
		return nil, err
	}
	for i := 0; i < denseAPs; i++ {
		id := trace.APID(fmt.Sprintf("ap-%02d", i))
		w.aps = append(w.aps, id)
		capacity[id] = denseCapacityBps
		if err := j.Append(journal.Record{Op: journal.OpRegister, TS: t0, AP: id,
			CapacityBps: denseCapacityBps, Static: true}); err != nil {
			j.Close()
			return nil, err
		}
	}
	w.drv = newDriver("", users, w.clock, w.departed, capacity, e.tr)
	for i := range users {
		users[i] = trace.UserID(fmt.Sprintf("res-%06d", i))
		ap, demand := w.aps[rng.Intn(denseAPs)], float64(10e3+rng.Intn(90e3))
		w.drv.preload(int32(i), ap, demand)
		if err := j.Append(journal.Record{Op: journal.OpAssoc, TS: t0,
			Placements: []journal.Placement{{User: users[i], AP: ap, DemandBps: demand}}}); err != nil {
			j.Close()
			return nil, err
		}
	}
	if err := j.Close(); err != nil {
		return nil, err
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	w.ctl, err = denseController(e.dir, w.clock, w.departed, e.tr)
	if err != nil {
		return nil, err
	}
	w.recoverMS = float64(time.Since(start)) / 1e6
	runtime.ReadMemStats(&ms1)
	w.recoverAllocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	if rec := w.ctl.Recovery(); rec.Assignments != residents || rec.ReplayErrors != 0 {
		w.ctl.Close()
		return nil, fmt.Errorf("dense100k: recovered %d of %d residents, %d replay errors",
			rec.Assignments, residents, rec.ReplayErrors)
	}
	if w.drv.addr, err = w.ctl.Listen("127.0.0.1:0"); err != nil {
		w.ctl.Close()
		return nil, err
	}
	// The first residents are the ones with a station; their connections
	// are opened here, so the timed phase is decisions only.
	for u := int32(0); u < int32(stations); u++ {
		if err := w.drv.connect(u); err != nil {
			w.close()
			return nil, err
		}
	}
	if e.tr != nil {
		w.drv.mid = func() { w.mid = w.ctl.Snapshot() }
	}
	n := e.ops(denseOpsPerSecond)
	w.ops = make([]op, n)
	for i := range w.ops {
		w.ops[i] = op{kind: opAssoc, user: int32(i % stations), ts: t0 + 1 + int64(i/100),
			demand: float64(10e3 + rng.Intn(190e3))}
	}
	return w, nil
}

func (w *dense) attempted() int { return len(w.ops) }

func (w *dense) run(m *measure) { w.drv.run(w.ops, m) }

// check: conservation against the driver's model, then the end-of-run
// journal recovers to the same snapshot.
func (w *dense) check() error {
	if err := w.drv.conservation(w.ctl.Snapshot()); err != nil {
		return err
	}
	// Hanging up disassociates the stations' users; the snapshot after
	// it is what the journal must recover to.
	if err := w.drv.closeAll(); err != nil {
		return err
	}
	w.endSnapshot = w.ctl.Snapshot()
	if err := w.ctl.Close(); err != nil {
		return err
	}
	var err error
	if w.ctl, err = denseController(w.dir, w.clock, w.departed, nil); err != nil {
		return fmt.Errorf("re-recovery: %w", err)
	}
	if got := w.ctl.Snapshot(); !reflect.DeepEqual(got, w.endSnapshot) {
		return fmt.Errorf("re-recovery: snapshot differs from the end-of-run snapshot")
	}
	return nil
}

func (w *dense) close() error {
	err := w.drv.closeAll()
	if cerr := w.ctl.Close(); err == nil {
		err = cerr
	}
	return err
}

func (w *dense) layers(r *report, ph *phase, st *spanStats) error {
	r.set("journal.recover_ms", w.recoverMS)
	r.set("journal.recover_alloc_mb", w.recoverAllocMB)
	return liveLayers(r, ph, st, liveInfo{drv: w.drv, mid: w.mid, probeDir: w.probeDir})
}
