package protocol

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"github.com/s3wlan/s3wlan/internal/apps"
	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/core"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/society/incremental"
	"github.com/s3wlan/s3wlan/internal/synth"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// TestSimLiveParity replays one seeded trace through both association
// drivers — the batch simulator (internal/wlan) and the live controller
// — for four policies and asserts byte-identical assignment sequences.
// Both drivers are thin shells over the shared association-domain core
// (internal/domain), so this is the equivalence check the refactor
// promises: same views, same admission, same commits, same decisions.
//
// The live driver is exercised through the controller's decision path
// (Associate per arrival, disassociate) with a scripted clock,
// reproducing the simulator's event order: arrivals at time t fire
// before departures at t (eventsim schedules arrivals up front, so they
// hold lower sequence numbers), and same-time departures fire in
// placement order. The controller decides one request at a time, so the
// simulator gets the policy without its batch face and decides each
// co-arrival singly too; its batch path is covered by wlan's
// TestSimulateBatchSelector and the offline golden figures.
func TestSimLiveParity(t *testing.T) {
	tr, par, ctrl := parityFixture(t)
	aps := tr.Topology.APsOf(ctrl)

	model := parityModel(t, tr)
	liveEngineCfg := func() incremental.Config {
		cfg := incremental.DefaultConfig()
		// Small event window so snapshot refreshes actually interleave
		// with decisions; both drivers see identical event streams, so
		// refresh points coincide.
		cfg.RefreshEvents = 16
		return cfg
	}
	newS3Live := func() (wlan.Selector, *incremental.Engine) {
		eng := incremental.New(liveEngineCfg())
		eng.SetTypes(model.Types, model.TypeMatrix)
		eng.Refresh()
		sel, err := core.NewSelector(eng, core.DefaultSelectorConfig())
		if err != nil {
			t.Fatal(err)
		}
		return sel, eng
	}

	cases := []struct {
		name  string
		build func() (wlan.Selector, *incremental.Engine)
	}{
		{"LLF", func() (wlan.Selector, *incremental.Engine) {
			return baseline.LLF{}, nil
		}},
		{"StrongestRSSI", func() (wlan.Selector, *incremental.Engine) {
			return baseline.StrongestRSSI{}, nil
		}},
		{"S3-batch", func() (wlan.Selector, *incremental.Engine) {
			sel, err := core.NewSelector(model, core.DefaultSelectorConfig())
			if err != nil {
				t.Fatal(err)
			}
			return sel, nil
		}},
		{"S3-live", newS3Live},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// --- Simulator driver, deciding singly like the controller.
			simSel, simEng := tc.build()
			simCfg := wlan.Config{
				SelectorFor: func(trace.ControllerID, []trace.AP) wlan.Selector {
					return struct{ wlan.Selector }{simSel}
				},
			}
			if simEng != nil {
				simCfg.Observer = simEng
			}
			simRes, err := wlan.Simulate(par, simCfg)
			if err != nil {
				t.Fatalf("simulate: %v", err)
			}
			simSeq := make([]parityRecord, 0, len(simRes.Domains[ctrl].Assigned))
			for _, a := range simRes.Domains[ctrl].Assigned {
				simSeq = append(simSeq, parityRecord{
					User: a.Session.User, At: a.Session.ConnectAt, AP: a.AP,
				})
			}

			// --- Live controller driver.
			liveSel, liveEng := tc.build()
			var clock atomic.Int64
			opts := []ControllerOption{
				WithClock(func() int64 { return clock.Load() }),
			}
			if liveEng != nil {
				opts = append(opts, WithObserver(liveEng))
			}
			c, err := NewController(liveSel, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, ap := range aps {
				if err := c.RegisterAP(ap.ID, ap.CapacityBps); err != nil {
					t.Fatal(err)
				}
			}
			liveSeq := replayLive(t, c, &clock, par.Sessions)

			if !reflect.DeepEqual(simSeq, liveSeq) {
				for i := range simSeq {
					if i >= len(liveSeq) || simSeq[i] != liveSeq[i] {
						t.Fatalf("policy %s diverges at decision %d: sim %+v, live %+v",
							tc.name, i, simSeq[i], at(liveSeq, i))
					}
				}
				t.Fatalf("policy %s: sim made %d decisions, live %d",
					tc.name, len(simSeq), len(liveSeq))
			}
			if len(simSeq) == 0 {
				t.Fatal("parity fixture produced no decisions")
			}
		})
	}
}

type parityRecord struct {
	User trace.UserID
	At   int64
	AP   trace.APID
}

func at(seq []parityRecord, i int) any {
	if i >= len(seq) {
		return "<missing>"
	}
	return seq[i]
}

// replayLive feeds the sanitized sessions through the controller in the
// simulator's exact event order and returns the assignment sequence.
func replayLive(t *testing.T, c *Controller, clock *atomic.Int64, sessions []trace.Session) []parityRecord {
	t.Helper()
	// Sort exactly like the simulator orders its arrival stream.
	sorted := append([]trace.Session(nil), sessions...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.ConnectAt != b.ConnectAt {
			return a.ConnectAt < b.ConnectAt
		}
		if a.Controller != b.Controller {
			return a.Controller < b.Controller
		}
		if a.User != b.User {
			return a.User < b.User
		}
		return a.DisconnectAt < b.DisconnectAt
	})

	// Departures ordered by (time, placement order); placement order is
	// the sorted index, because the simulator schedules each departure
	// when it places the session.
	type departure struct {
		at  int64
		idx int
	}
	deps := make([]departure, len(sorted))
	for i, s := range sorted {
		deps[i] = departure{at: s.DisconnectAt, idx: i}
	}
	sort.Slice(deps, func(i, j int) bool {
		if deps[i].at != deps[j].at {
			return deps[i].at < deps[j].at
		}
		return deps[i].idx < deps[j].idx
	})

	// Distinct event times, ascending.
	timeSet := make(map[int64]bool, 2*len(sorted))
	for _, s := range sorted {
		timeSet[s.ConnectAt] = true
		timeSet[s.DisconnectAt] = true
	}
	times := make([]int64, 0, len(timeSet))
	for ts := range timeSet {
		times = append(times, ts)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })

	var out []parityRecord
	ai, di := 0, 0
	for _, now := range times {
		clock.Store(now)
		// Arrivals at `now` first (they hold lower event sequence
		// numbers than any departure), in the simulator's arrival order.
		for ; ai < len(sorted) && sorted[ai].ConnectAt == now; ai++ {
			s := sorted[ai]
			ap, err := c.Associate(s.User, s.Throughput())
			if err != nil {
				t.Fatalf("live associate at t=%d: %v", now, err)
			}
			out = append(out, parityRecord{User: s.User, At: s.ConnectAt, AP: ap})
		}
		// Then departures at `now`, in placement order.
		for di < len(deps) && deps[di].at == now {
			c.disassociate(sorted[deps[di].idx].User, nil)
			di++
		}
	}
	return out
}

// parityFixture generates a seeded campus, picks its first controller
// domain, and sanitizes that domain's sessions for the replay: connect
// times snapped to a 30 s grid (creating genuine co-arrival batches) and
// per-user sessions made strictly non-overlapping (the live controller
// holds one association per user — a fresh request supersedes — while
// the simulator stacks concurrent sessions, so overlap is out of scope
// for parity). Returns the full trace (for model training), the
// sanitized replay trace, and the chosen controller.
func parityFixture(t *testing.T) (*trace.Trace, *trace.Trace, trace.ControllerID) {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Seed = 7
	cfg.Users = 60
	cfg.Buildings = 2
	cfg.APsPerBuilding = 4
	cfg.Days = 3
	tr, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := tr.Topology.Controllers()[0]

	perUser := make(map[trace.UserID][]trace.Session)
	for _, s := range tr.Sessions {
		if s.Controller == ctrl {
			perUser[s.User] = append(perUser[s.User], s)
		}
	}
	users := make([]trace.UserID, 0, len(perUser))
	for u := range perUser {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })

	const maxSessions = 300
	var kept []trace.Session
	for _, u := range users {
		list := perUser[u]
		sort.Slice(list, func(i, j int) bool { return list[i].ConnectAt < list[j].ConnectAt })
		lastEnd := int64(-1 << 62)
		for _, s := range list {
			connect := s.ConnectAt - mod(s.ConnectAt, 30)
			if connect <= lastEnd {
				continue // overlap with the user's previous session: drop
			}
			dur := s.DisconnectAt - s.ConnectAt
			if dur < 30 {
				dur = 30
			}
			s.ConnectAt = connect
			s.DisconnectAt = connect + dur
			kept = append(kept, s)
			lastEnd = s.DisconnectAt
		}
	}
	if len(kept) > maxSessions {
		sort.Slice(kept, func(i, j int) bool { return kept[i].ConnectAt < kept[j].ConnectAt })
		kept = kept[:maxSessions]
	}
	if len(kept) < 50 {
		t.Fatalf("parity fixture too small: %d sessions", len(kept))
	}
	par := &trace.Trace{
		Topology: trace.Topology{APs: tr.Topology.APsOf(ctrl)},
		Sessions: kept,
	}
	return tr, par, ctrl
}

func mod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

// parityModel batch-trains the sociality model both S³ variants start
// from, on the full generated campus.
func parityModel(t *testing.T, tr *trace.Trace) *society.Model {
	t.Helper()
	profiles := apps.BuildProfiles(tr.Flows, trainEpoch(tr), apps.NewClassifier())
	model, err := society.Train(tr, profiles, society.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return model
}

func trainEpoch(tr *trace.Trace) int64 {
	start, _ := tr.TimeRange()
	return start - mod(start, 86400)
}

// shardInvarianceDigest is FNV-1a over the user|at|ap lines of the
// assignment sequence TestSimLiveParityShardInvariance replays, computed
// at the last release that had AP shards, where 1, 4 and 16 shards all
// produced it.
const shardInvarianceDigest uint64 = 16688021019004810074

// TestSimLiveParityShardInvariance re-runs the live half of the parity
// check under LLF. It was the proof that the shard count never altered
// an assignment; with one lock domain left it pins the sequence across
// releases instead.
func TestSimLiveParityShardInvariance(t *testing.T) {
	_, par, ctrl := parityFixture(t)

	var clock atomic.Int64
	c, err := NewController(baseline.LLF{}, WithClock(func() int64 { return clock.Load() }))
	if err != nil {
		t.Fatal(err)
	}
	for _, ap := range par.Topology.APsOf(ctrl) {
		if err := c.RegisterAP(ap.ID, ap.CapacityBps); err != nil {
			t.Fatal(err)
		}
	}
	h := fnv.New64a()
	for _, r := range replayLive(t, c, &clock, par.Sessions) {
		fmt.Fprintf(h, "%s|%d|%s\n", r.User, r.At, r.AP)
	}
	if got := h.Sum64(); got != shardInvarianceDigest {
		t.Fatalf("assignment digest = %d, want %d", got, shardInvarianceDigest)
	}
}
