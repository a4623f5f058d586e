package main

import (
	"bytes"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"github.com/s3wlan/s3wlan/internal/apps"
	"github.com/s3wlan/s3wlan/internal/core"
	"github.com/s3wlan/s3wlan/internal/protocol"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/society/incremental"
	"github.com/s3wlan/s3wlan/internal/synth"
	"github.com/s3wlan/s3wlan/internal/trace"
)

func init() {
	register(workload{
		name: "campus_live",
		why: "the shipped s3-live configuration on a campus with planted co-leaving groups: " +
			"society/incremental, socialgraph and core.Select do most of the work, domain views almost none",
		setup: setupCampusLive,
	})
}

const (
	// campusSessionsPerSecond is the calibrated number of sessions (one
	// arrival and one departure each) per second of requested run length.
	campusSessionsPerSecond = 900
	campusTrainDays         = 28
	// campusSessionsPerDay is a floor on what one generated day yields
	// after overlapping sessions are dropped; it sizes the held-out part.
	campusSessionsPerDay = 550
	campusRefreshEvents  = 256
)

type campusLive struct {
	ctl    *protocol.Controller
	engine *incremental.Engine
	drv    *driver
	ops    []op

	ingestS  float64
	topo     []trace.AP
	mid      map[trace.APID]protocol.APStatus
	probeDir string
}

// sessionEvents flattens sessions into arrivals and departures in time
// order; at equal times departures go first, so a user's back-to-back
// sessions do not overlap.
type sessionEvent struct {
	ts     int64
	leave  bool
	sess   int
	userIx int32
}

func sessionEvents(sessions []trace.Session, userIx map[trace.UserID]int32) []sessionEvent {
	evs := make([]sessionEvent, 0, 2*len(sessions))
	for i, s := range sessions {
		u := userIx[s.User]
		evs = append(evs, sessionEvent{ts: s.ConnectAt, sess: i, userIx: u},
			sessionEvent{ts: s.DisconnectAt, leave: true, sess: i, userIx: u})
	}
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].ts != evs[b].ts {
			return evs[a].ts < evs[b].ts
		}
		return evs[a].leave && !evs[b].leave
	})
	return evs
}

// firstSessions returns the first n sessions of a connect-ordered list
// that do not overlap an earlier kept session of the same user (the
// controller keys sessions by user).
func firstSessions(sessions []trace.Session, n int) []trace.Session {
	busyUntil := make(map[trace.UserID]int64)
	kept := make([]trace.Session, 0, n)
	for _, s := range sessions {
		if len(kept) == n {
			break
		}
		if s.DisconnectAt <= s.ConnectAt || s.ConnectAt < busyUntil[s.User] {
			continue
		}
		busyUntil[s.User] = s.DisconnectAt
		kept = append(kept, s)
	}
	return kept
}

func setupCampusLive(e *env) (world, error) {
	n := e.ops(campusSessionsPerSecond)
	campus := synth.DefaultConfig()
	campus.Seed = e.seed
	heldOutDays := n/campusSessionsPerDay + 2
	campus.Days = campusTrainDays + heldOutDays
	if e.tiny {
		campus.Users, campus.Buildings = 120, 3
		campus.Days = 10
	}
	trainDays := campus.Days - heldOutDays
	full, _, err := synth.Generate(campus)
	if err != nil {
		return nil, err
	}
	train, test := full.SplitAt(campus.Epoch + int64(trainDays)*86400)

	// The shipped s3-live bring-up: a batch-trained type prior, then the
	// deployment's own history learned event by event.
	profiles := apps.BuildProfiles(train.Flows, campus.Epoch, apps.NewClassifier())
	model, err := society.Train(train, profiles, society.DefaultConfig())
	if err != nil {
		return nil, err
	}
	w := &campusLive{topo: full.Topology.APs, probeDir: e.probeDir}

	users := full.Users()
	userIx := make(map[trace.UserID]int32, len(users))
	for i, u := range users {
		userIx[u] = int32(i)
	}
	// History is learned without publishing snapshots nobody reads (a
	// refresh per 256 events makes 28 days of history a 15 s set-up),
	// then handed to the serving engine the way a restarted controller
	// gets it: through the engine's persisted state, which rebuilds the
	// θ-graph and clique cover once.
	cfg := incremental.DefaultConfig()
	cfg.RefreshEvents = 0
	history := incremental.New(cfg)
	history.SetTypes(model.Types, model.TypeMatrix)
	t0 := time.Now()
	for _, ev := range sessionEvents(train.Sessions, userIx) {
		s := train.Sessions[ev.sess]
		if ev.leave {
			// The learner rejects departures it cannot order; history
			// has a few (stacked sessions) and live traffic has none.
			_ = history.Disconnect(s.User, s.AP, ev.ts)
		} else {
			history.Connect(s.User, s.AP, ev.ts)
		}
	}
	var state bytes.Buffer
	if err := history.WriteState(&state); err != nil {
		return nil, err
	}
	cfg.RefreshEvents = campusRefreshEvents
	w.engine = incremental.New(cfg)
	if err := w.engine.ReadState(&state); err != nil {
		return nil, err
	}
	w.ingestS = time.Since(t0).Seconds()

	demands, err := core.NewDemandEstimator(train.Sessions)
	if err != nil {
		return nil, err
	}
	kept := firstSessions(test.Sessions, n)
	if len(kept) < n {
		return nil, fmt.Errorf("campus_live: held-out days yield %d sessions, schedule needs %d", len(kept), n)
	}
	for _, ev := range sessionEvents(kept, userIx) {
		o := op{kind: opArrive, user: ev.userIx, ts: ev.ts, demand: demands.Demand(kept[ev.sess].User)}
		if ev.leave {
			o.kind = opLeave
		}
		w.ops = append(w.ops, o)
	}

	// The engine itself, not a wrapper, is the selector's SocialIndex.
	sel, err := core.NewSelector(w.engine, core.DefaultSelectorConfig())
	if err != nil {
		return nil, err
	}
	clock := new(atomic.Int64)
	clock.Store(w.ops[0].ts)
	departed := newBarrier()
	w.ctl, err = protocol.NewController(traceSelector(sel, "core", e.tr),
		protocol.WithObserver(newBarrierObserver(w.engine, departed, e.tr)),
		protocol.WithClock(clock.Load),
		// Refresh by event count only: a wall-clock tick would land at a
		// different operation in every run.
		protocol.WithRefresher(func() { w.engine.Refresh() }, time.Hour),
		protocol.WithJournal(e.dir, journalOptions(e.tr, shippedCheckpointEvery)),
		protocol.WithTimeout(serverTimeout))
	if err != nil {
		return nil, err
	}
	capacity := make(map[trace.APID]float64, len(w.topo))
	for _, ap := range w.topo {
		// Static registration: AP agents' load reports reach LoadMax
		// decisions asynchronously, which no schedule can pin down.
		if err := w.ctl.RegisterAP(ap.ID, ap.CapacityBps); err != nil {
			w.ctl.Close()
			return nil, err
		}
		capacity[ap.ID] = ap.CapacityBps
	}
	addr, err := w.ctl.Listen("127.0.0.1:0")
	if err != nil {
		w.ctl.Close()
		return nil, err
	}
	w.drv = newDriver(addr, users, clock, departed, capacity, e.tr)
	if e.tr != nil {
		w.drv.mid = func() { w.mid = w.ctl.Snapshot() }
	}
	return w, nil
}

func (w *campusLive) attempted() int { return len(w.ops) }

func (w *campusLive) run(m *measure) { w.drv.run(w.ops, m) }

func (w *campusLive) check() error {
	return w.drv.conservation(w.ctl.Snapshot())
}

func (w *campusLive) layers(r *report, ph *phase, st *spanStats) error {
	r.set("society.history_ingest_s", w.ingestS)
	r.set("socialgraph.cover_ms", probeCover(w.engine))
	return liveLayers(r, ph, st, liveInfo{drv: w.drv, mid: w.mid, probeDir: w.probeDir})
}

func (w *campusLive) close() error {
	err := w.drv.closeAll()
	if cerr := w.ctl.Close(); err == nil {
		err = cerr
	}
	return err
}
