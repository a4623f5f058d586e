package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"time"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/federation"
	"github.com/s3wlan/s3wlan/internal/protocol"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

func init() {
	register(workload{
		name: "relay3",
		why: "three federated nodes, every arrival and departure relayed one hop to its owner and replicated to two followers: " +
			"router, two codec hops, journal append, Follow decode; domain and society negligible",
		setup: setupRelay,
	})
}

const (
	relayOpsPerSecond = 10000 // associations; each is followed by its departure
	relayNodes        = 3
	relayAPsPerGroup  = 8
	relayStations     = 16
	relayCapacityBps  = 50e6
	// relayTickEvery is how many associations pass between lease/follow
	// rounds. The nodes' own lease loops are parked (1 h TTL) and the
	// driver calls Tick on this schedule instead, so renewals and
	// follower polls land at the same operations in every run.
	relayTickEvery = 512
	// relayResidents populate the two groups the stations use, so a
	// decision sees a populated domain; relayHomeResidents populate n0's
	// own group, which the timed phase never touches: bringing them up
	// and replicating them to two followers is most of the set-up.
	relayResidents     = 3000
	relayHomeResidents = 20000
)

type relay struct {
	nodes    []*federation.Node
	own      *federation.Ownership
	drv      *driver
	direct   *driver // traced run: the same stations' peers, dialled straight to the owner
	ops      []op
	n        int
	departed *barrier
	clock    *atomic.Int64
	mid      map[trace.APID]protocol.APStatus
	probeDir string
	rng      *rand.Rand
}

// usersInGroups returns n user IDs hashing to one of groups, evenly.
func usersInGroups(own *federation.Ownership, prefix string, groups []int, n int) []trace.UserID {
	var out []trace.UserID
	next := 0
	for i := 0; len(out) < n; i++ {
		u := trace.UserID(fmt.Sprintf("%s-%05d", prefix, i))
		if own.GroupOfUser(u) == groups[next%len(groups)] {
			out = append(out, u)
			next++
		}
	}
	return out
}

func setupRelay(e *env) (world, error) {
	rng := rand.New(rand.NewSource(e.seed))
	ids := make([]string, relayNodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i)
	}
	own, err := federation.DefaultOwnership(ids, relayNodes)
	if err != nil {
		return nil, err
	}
	w := &relay{own: own, probeDir: e.probeDir, rng: rng, departed: newBarrier(), clock: new(atomic.Int64), n: e.ops(relayOpsPerSecond)}
	const t0 = 1_700_000_000
	w.clock.Store(t0)
	residents, homeResidents := relayResidents, relayHomeResidents
	if e.tiny {
		residents, homeResidents = 100, 100
	}

	addrs := make([]string, relayNodes)
	for i, id := range ids {
		id := id
		node, err := federation.NewNode(federation.Config{
			NodeID:    id,
			Root:      e.dir,
			Ownership: own,
			LeaseTTL:  time.Hour,
			Timeout:   serverTimeout,
			Journal:   journalOptions(e.tr, shippedCheckpointEvery),
			NewSelector: func() wlan.Selector {
				return traceSelector(baseline.LLF{}, "baseline", e.tr)
			},
			ControllerOpts: func(g int) []protocol.ControllerOption {
				// Only the owner's controller confirms departures; the
				// followers' standbys see the same events on replay.
				var b *barrier
				if own.Home(g) == id {
					b = w.departed
				}
				return []protocol.ControllerOption{
					protocol.WithObserver(newBarrierObserver(nil, b, e.tr)),
					protocol.WithClock(w.clock.Load),
				}
			},
		})
		if err != nil {
			w.close()
			return nil, err
		}
		w.nodes = append(w.nodes, node)
		if addrs[i], err = node.Listen("127.0.0.1:0"); err != nil {
			w.close()
			return nil, err
		}
	}
	// One round claims every group for its home node; the domain is
	// registered on the owners and reaches the followers on the next.
	w.tick()
	capacity := make(map[trace.APID]float64)
	for g := 0; g < own.Groups(); g++ {
		ctl, owned := w.nodes[g].Controller(g)
		if !owned {
			w.close()
			return nil, fmt.Errorf("relay3: group %d not owned by its home node after the first lease round", g)
		}
		var aps []trace.APID
		for i := 0; len(aps) < relayAPsPerGroup; i++ {
			id := trace.APID(fmt.Sprintf("ap-%04d", i))
			if own.GroupOfAP(id) != g {
				continue
			}
			if err := ctl.RegisterAP(id, relayCapacityBps); err != nil {
				w.close()
				return nil, err
			}
			capacity[id] = relayCapacityBps
			aps = append(aps, id)
		}
		n := residents
		if g == 0 {
			n = homeResidents
		}
		for _, u := range usersInGroups(own, "res", []int{g}, n) {
			if _, err := ctl.Associate(u, float64(1e3+rng.Intn(4e3))); err != nil {
				w.close()
				return nil, err
			}
		}
	}
	w.tick()

	// Stations connect to n0 and use only users whose groups n1 and n2
	// own, so every message crosses the relay hop.
	users := usersInGroups(own, "sta", []int{1, 2}, relayStations)
	w.drv = newDriver(addrs[0], users, w.clock, w.departed, capacity, e.tr)
	w.drv.tick = w.tick
	for u := range users {
		if err := w.drv.connect(int32(u)); err != nil {
			w.close()
			return nil, err
		}
	}
	if e.tr != nil {
		// The same operation without the hop: peers of the same groups
		// dialled straight to n1. Run after the timed phase, in layers.
		w.drv.mid = func() {
			ctl, _ := w.nodes[1].Controller(1)
			w.mid = ctl.Snapshot()
		}
		peers := usersInGroups(own, "dir", []int{1}, relayStations)
		w.direct = newDriver(addrs[1], peers, w.clock, w.departed, capacity, nil)
		for u := range peers {
			if err := w.direct.connect(int32(u)); err != nil {
				w.close()
				return nil, err
			}
		}
	}
	w.ops = relaySchedule(w.n, relayStations, rng, t0, true)
	return w, nil
}

// relaySchedule is n association/departure pairs round-robin over the
// stations, with a lease/follow round every relayTickEvery pairs.
func relaySchedule(n, stations int, rng *rand.Rand, t0 int64, ticks bool) []op {
	ops := make([]op, 0, 2*n+n/relayTickEvery)
	for i := 0; i < n; i++ {
		u, ts := int32(i%stations), t0+1+int64(i/100)
		ops = append(ops,
			op{kind: opAssoc, user: u, ts: ts, demand: float64(10e3 + rng.Intn(190e3))},
			op{kind: opDepart, user: u, ts: ts})
		if ticks && (i+1)%relayTickEvery == 0 {
			ops = append(ops, op{kind: opTick, ts: ts})
		}
	}
	return ops
}

// tick runs one lease/follow round on every node, in node order.
func (w *relay) tick() {
	for _, n := range w.nodes {
		n.Tick()
	}
}

func (w *relay) attempted() int { return scheduled(w.ops) }

func (w *relay) run(m *measure) { w.drv.run(w.ops, m) }

// check: after a quiescing follow round every follower's standby equals
// its owner, and the owners hold exactly the residents (every station
// departed).
func (w *relay) check() error {
	w.tick()
	for g := 0; g < w.own.Groups(); g++ {
		owner, _ := w.nodes[g].Controller(g)
		want := owner.Snapshot()
		for i, n := range w.nodes {
			ctl, owned := n.Controller(g)
			if owned != (i == g) {
				return fmt.Errorf("group %d: ownership moved during the run", g)
			}
			if got := ctl.Snapshot(); !reflect.DeepEqual(got, want) {
				return fmt.Errorf("group %d: follower n%d's snapshot differs from the owner's", g, i)
			}
		}
		for _, st := range want {
			for _, u := range st.Users {
				if len(u) < 3 || u[:3] != "res" {
					return fmt.Errorf("group %d: %s still associated after its departure", g, u)
				}
			}
		}
	}
	return nil
}

func (w *relay) close() error {
	for _, d := range []*driver{w.drv, w.direct} {
		if d != nil {
			d.closeAll()
		}
	}
	var err error
	for _, n := range w.nodes {
		if cerr := n.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

func (w *relay) layers(r *report, ph *phase, st *spanStats) error {
	// The hop: the same association/departure pairs from the same kind
	// of station, sent straight to the owner.
	var direct measure
	w.direct.run(relaySchedule(w.n/4, relayStations, w.rng, w.clock.Load(), false), &direct)
	if direct.failed > 0 {
		return fmt.Errorf("relay3: %d direct operations failed: %v", direct.failed, direct.errs)
	}
	hop := (percentile(ph.m.assoc, 50) - percentile(direct.assoc, 50)) / 1e3

	// A record waits for the next lease/follow round: on average half
	// the gap since the previous round, plus the round itself.
	var lags []float64
	prevEnd := int64(-1)
	for _, s := range st.spans {
		if s.Name != spanTick {
			continue
		}
		if prevEnd >= 0 {
			lags = append(lags, (float64(s.Start-prevEnd)/2+float64(s.End-s.Start))/1e6)
		}
		prevEnd = s.End
	}
	r.set("federation.follow_lag_ms", median(lags))
	return liveLayers(r, ph, st, liveInfo{drv: w.drv, mid: w.mid, probeDir: w.probeDir, hopUS: hop})
}
