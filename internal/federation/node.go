package federation

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/protocol"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// Cluster health counters: ownership churn and replication progress.
// Outside chaos, takeovers and demotions should both be zero after the
// cluster settles, and follow records should track every owner append.
var (
	obsTakeovers   = obs.GetCounter("federation.takeovers", "Group ownership takeovers completed (expired lease claimed, standby promoted)")
	obsDemotions   = obs.GetCounter("federation.demotions", "Self-demotions: an owner found its lease epoch moved and stepped down")
	obsRenewals    = obs.GetCounter("federation.lease_renewals", "Successful owner lease renewals")
	obsClaimRaces  = obs.GetCounter("federation.claim_races", "Takeover claims lost to a rival replica (O_EXCL claim file existed)")
	obsRelays      = obs.GetCounter("federation.relays", "Peer connections relayed to a remote group owner")
	obsRelayErrors = obs.GetCounter("federation.relay_errors", "Relayed connections that failed (owner unreachable or relay I/O error)")
	obsGroupsOwned = obs.GetGauge("federation.groups_owned", "Federation groups this node currently owns")
)

// Config configures one cluster replica.
type Config struct {
	// NodeID names this replica in the ownership map and lease files.
	NodeID string
	// Root is the shared cluster directory: per-group journals live in
	// <Root>/group-<g>/, leases in <Root>/leases/. All replicas of one
	// cluster point at the same root.
	Root string
	// Ownership is the static group→home-owner map.
	Ownership *Ownership
	// LeaseTTL is how long an owner's silence lasts before a follower
	// may take its groups over (default 2s). Renewals run at TTL/4.
	LeaseTTL time.Duration
	// NewSelector builds the association policy for one group's
	// controller. Called once per group per controller incarnation.
	NewSelector func() wlan.Selector
	// ControllerOpts extends each group controller's construction (e.g.
	// lease seconds, observers). WithJournal must not be among them —
	// journals are owned by the federation lifecycle.
	ControllerOpts func(group int) []protocol.ControllerOption
	// Journal carries the owner-side journal policy (fsync, checkpoint
	// cadence). Epoch, State and FlushEachAppend are managed by the
	// node: followers tail segments between fsyncs, so every append is
	// flushed.
	Journal journal.Options
	// Timeout bounds relay and serve I/O (default 30s).
	Timeout time.Duration
	// BreakerFailures is the relay circuit breaker's budget: that many
	// consecutive relay failures to a group's owner trip the group's
	// breaker to fast local MsgBusy refusal (default 5; see breaker.go).
	BreakerFailures int
	// BreakerCooldown is how long a tripped breaker fast-refuses before
	// admitting a half-open probe (default 1s).
	BreakerCooldown time.Duration
	// WrapListener, when set, decorates the router's listener before the
	// accept loop starts — the chaos suite's injection point for
	// internal/faults transports. Production leaves it nil.
	WrapListener func(net.Listener) net.Listener
	// Logger receives lifecycle diagnostics (default: discard).
	Logger *log.Logger
	// nowMs overrides the lease clock in tests (unix milliseconds).
	nowMs func() int64
}

// Role is a node's relationship to one group.
type Role string

// Group roles.
const (
	RoleOwner    Role = "owner"
	RoleFollower Role = "follower"
)

// GroupHealth is one group's state as seen from this node — the
// health surface s3proto serves and the chaos suite asserts on.
type GroupHealth struct {
	Group int    `json:"group"`
	Role  Role   `json:"role"`
	Epoch uint64 `json:"epoch"`
	// Owner and Addr name the lease holder (possibly this node).
	Owner string `json:"owner,omitempty"`
	Addr  string `json:"addr,omitempty"`
	// Home is the group's static home owner.
	Home string `json:"home"`
	// FollowSeq is the replication position when following; the journal
	// head when owning.
	FollowSeq uint64 `json:"follow_seq"`
}

// Health is the node identity block in s3proto's health output.
type Health struct {
	NodeID string        `json:"node_id"`
	Addr   string        `json:"addr,omitempty"`
	Owned  []int         `json:"owned_groups"`
	Groups []GroupHealth `json:"groups"`
}

// group is one federation group's replica-local state machine:
// follower (standby controller + journal tail) or owner (journal-armed
// controller serving writes).
type group struct {
	mu       sync.Mutex
	id       int
	role     Role
	epoch    uint64 // owning epoch when RoleOwner
	ctrl     *protocol.Controller
	follower *journal.Follower // nil when owning
}

// Node is one replica of the federated controller cluster.
type Node struct {
	cfg      Config
	leases   *leaseStore
	groups   []*group
	breakers []*breaker // per-group relay circuit breakers

	mu        sync.Mutex
	addr      string
	ln        net.Listener
	conns     map[net.Conn]struct{}
	startedMs int64
	stop      chan struct{}
	wg        sync.WaitGroup
	closed    bool
}

// NewNode builds a replica: every group starts as a follower with a
// standby controller, even the node's home groups — ownership is only
// ever entered through the lease claim path, so a rejoining node finds
// the fresh lease of whoever took its groups over and stays a
// follower until that owner actually dies.
func NewNode(cfg Config) (*Node, error) {
	if cfg.NodeID == "" {
		return nil, errors.New("federation: empty node id")
	}
	if cfg.Root == "" {
		return nil, errors.New("federation: empty cluster root")
	}
	if cfg.Ownership == nil {
		return nil, errors.New("federation: nil ownership map")
	}
	if cfg.NewSelector == nil {
		return nil, errors.New("federation: nil selector factory")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 2 * time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	if cfg.nowMs == nil {
		cfg.nowMs = func() int64 { return time.Now().UnixMilli() }
	}
	leases, err := newLeaseStore(cfg.Root, cfg.nowMs)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:       cfg,
		leases:    leases,
		conns:     make(map[net.Conn]struct{}),
		startedMs: cfg.nowMs(),
		stop:      make(chan struct{}),
	}
	for g := 0; g < cfg.Ownership.Groups(); g++ {
		if err := os.MkdirAll(n.groupDir(g), 0o755); err != nil {
			return nil, fmt.Errorf("federation: group dir: %w", err)
		}
		gs := &group{id: g, role: RoleFollower}
		if err := n.resetStandby(gs); err != nil {
			return nil, err
		}
		n.groups = append(n.groups, gs)
		n.breakers = append(n.breakers, newBreaker(cfg.BreakerFailures, cfg.BreakerCooldown))
	}
	return n, nil
}

func (n *Node) groupDir(g int) string {
	return filepath.Join(n.cfg.Root, fmt.Sprintf("group-%d", g))
}

// newController builds one group controller incarnation (no journal).
func (n *Node) newController(g int) (*protocol.Controller, error) {
	opts := []protocol.ControllerOption{protocol.WithTimeout(n.cfg.Timeout)}
	if n.cfg.ControllerOpts != nil {
		opts = append(opts, n.cfg.ControllerOpts(g)...)
	}
	return protocol.NewController(n.cfg.NewSelector(), opts...)
}

// resetStandby replaces gs's controller with a fresh standby and a
// follower from sequence zero. The first Poll rebuilds state from the
// group's newest checkpoint (resync) and record tail. Callers hold
// gs.mu or have exclusive access.
func (n *Node) resetStandby(gs *group) error {
	ctrl, err := n.newController(gs.id)
	if err != nil {
		return err
	}
	gs.ctrl = ctrl
	gs.follower = journal.NewFollower(n.groupDir(gs.id), 0)
	gs.role = RoleFollower
	gs.epoch = 0
	return n.pollGroup(gs)
}

// pollGroup advances a following group's standby from the replication
// stream. Callers hold gs.mu or have exclusive access.
func (n *Node) pollGroup(gs *group) error {
	resync := func(payload []byte, seq uint64) error {
		// A resync means pruning outran this follower: wholesale state
		// replacement needs an empty controller.
		ctrl, err := n.newController(gs.id)
		if err != nil {
			return err
		}
		if err := ctrl.RestoreCheckpoint(payload); err != nil {
			return err
		}
		gs.ctrl = ctrl
		return nil
	}
	_, err := gs.follower.Poll(resync, func(r journal.Record) error {
		return gs.ctrl.ApplyRecord(r)
	})
	return err
}

// ownerJournalOpts is the journal policy an owning controller appends
// under: the configured fsync/checkpoint policy, flushed per append so
// followers tail promptly, stamped with the ownership epoch.
func (n *Node) ownerJournalOpts(epoch uint64) journal.Options {
	opts := n.cfg.Journal
	opts.Epoch = epoch
	opts.FlushEachAppend = true
	opts.State = nil
	if opts.Logger == nil {
		opts.Logger = n.cfg.Logger
	}
	return opts
}

// promote turns gs's caught-up standby into the group owner at
// l.Epoch. Callers hold gs.mu.
func (n *Node) promote(gs *group, l *Lease) error {
	// Catch the standby up to the journal head first; the previous
	// owner may have appended after our last poll.
	if err := n.pollGroup(gs); err != nil {
		return err
	}
	_, err := gs.ctrl.AttachJournal(n.groupDir(gs.id), n.ownerJournalOpts(l.Epoch), gs.follower.LastSeq())
	if err != nil {
		// Behind a checkpoint we never saw: rebuild the standby from it
		// and retry once.
		if rerr := n.resetStandby(gs); rerr != nil {
			return fmt.Errorf("federation: group %d: %v (standby rebuild: %v)", gs.id, err, rerr)
		}
		_, err = gs.ctrl.AttachJournal(n.groupDir(gs.id), n.ownerJournalOpts(l.Epoch), gs.follower.LastSeq())
		if err != nil {
			return err
		}
	}
	gs.role = RoleOwner
	gs.epoch = l.Epoch
	gs.follower = nil
	return nil
}

// demote steps gs down: detach the journal without a checkpoint (a
// superseded owner must not snapshot stale state over the new owner's
// stream) and rebuild a follower-fed standby.
func (n *Node) demote(gs *group) {
	if err := gs.ctrl.DetachJournal(); err != nil {
		n.cfg.Logger.Printf("federation: group %d: detach: %v", gs.id, err)
	}
	if err := n.resetStandby(gs); err != nil {
		n.cfg.Logger.Printf("federation: group %d: standby rebuild after demotion: %v", gs.id, err)
	}
	obsDemotions.Inc()
}

// Listen starts serving on addr: the routing front-end accepts peers
// and the lease loop begins claiming/renewing this node's groups. It
// returns the bound address (which is also published in lease files
// for peers to relay to).
func (n *Node) Listen(addr string) (string, error) {
	bound, err := n.listenRouter(addr)
	if err != nil {
		return "", err
	}
	n.mu.Lock()
	n.addr = bound
	n.mu.Unlock()
	n.wg.Add(1)
	go n.leaseLoop()
	return bound, nil
}

// leaseLoop is the ownership heartbeat: every TTL/4 it renews owned
// leases (demoting if the epoch moved), advances followers, and claims
// expired or unclaimed groups.
func (n *Node) leaseLoop() {
	defer n.wg.Done()
	tick := time.NewTicker(n.cfg.LeaseTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-tick.C:
			n.Tick()
		}
	}
}

// Tick runs one lease-loop iteration synchronously. Exposed for
// deterministic tests; production uses the background loop.
func (n *Node) Tick() {
	n.mu.Lock()
	addr := n.addr
	n.mu.Unlock()
	owned := 0
	for _, gs := range n.groups {
		gs.mu.Lock()
		n.tickGroup(gs, addr)
		if gs.role == RoleOwner {
			owned++
		}
		gs.mu.Unlock()
	}
	obsGroupsOwned.Set(int64(owned))
}

func (n *Node) tickGroup(gs *group, addr string) {
	if gs.role == RoleOwner {
		cur, ok, err := n.leases.Renew(gs.id, n.cfg.NodeID, gs.epoch, addr, n.cfg.LeaseTTL)
		if err != nil {
			n.cfg.Logger.Printf("federation: group %d: renew: %v", gs.id, err)
			return
		}
		if !ok {
			usurper := "?"
			if cur != nil {
				usurper = fmt.Sprintf("%s@%d", cur.Owner, cur.Epoch)
			}
			n.cfg.Logger.Printf("federation: group %d: epoch moved to %s, demoting", gs.id, usurper)
			n.demote(gs)
			return
		}
		obsRenewals.Inc()
		return
	}

	// Follower: advance the standby, fence to the lease epoch, and
	// claim if the group is up for grabs.
	if err := n.pollGroup(gs); err != nil {
		n.cfg.Logger.Printf("federation: group %d: follow: %v", gs.id, err)
	}
	cur, err := n.leases.Read(gs.id)
	if err != nil {
		n.cfg.Logger.Printf("federation: group %d: lease read: %v", gs.id, err)
		return
	}
	if cur != nil {
		gs.follower.SetMinEpoch(cur.Epoch)
		if !cur.Expired(n.cfg.nowMs()) {
			return // live owner elsewhere (or racing claimant); keep following
		}
	} else if n.cfg.Ownership.Home(gs.id) != n.cfg.NodeID &&
		n.cfg.nowMs()-n.startedMs < 2*int64(n.cfg.LeaseTTL/time.Millisecond) {
		// Never-claimed group whose home owner is another node: give it
		// two TTLs to show up before claiming on its behalf, so a healthy
		// cluster boots with every group on its home owner instead of a
		// startup-order lottery. An *expired* lease is claimed by anyone
		// immediately — failover speed beats home placement.
		return
	}
	l, won, err := n.leases.Claim(gs.id, cur, n.cfg.NodeID, addr, n.cfg.LeaseTTL)
	if err != nil {
		n.cfg.Logger.Printf("federation: group %d: claim: %v", gs.id, err)
		return
	}
	if !won {
		if cur == nil || cur.Expired(n.cfg.nowMs()) {
			obsClaimRaces.Inc()
		}
		return
	}
	if err := n.promote(gs, l); err != nil {
		n.cfg.Logger.Printf("federation: group %d: promote at epoch %d: %v", gs.id, l.Epoch, err)
		// Surrender the claim: expire the lease so any replica
		// (including this one) can retry cleanly.
		l.Renewed = n.cfg.nowMs() - 100*int64(n.cfg.LeaseTTL/time.Millisecond)
		if werr := n.leases.write(l); werr != nil {
			n.cfg.Logger.Printf("federation: group %d: surrender lease: %v", gs.id, werr)
		}
		return
	}
	n.cfg.Logger.Printf("federation: group %d: owned at epoch %d (seq %d)", gs.id, l.Epoch, gs.ctrl.JournalSeq())
	obsTakeovers.Inc()
}

// Health reports this node's identity and per-group cluster state.
func (n *Node) Health() Health {
	n.mu.Lock()
	h := Health{NodeID: n.cfg.NodeID, Addr: n.addr, Owned: []int{}}
	n.mu.Unlock()
	for _, gs := range n.groups {
		gs.mu.Lock()
		gh := GroupHealth{
			Group: gs.id,
			Role:  gs.role,
			Epoch: gs.epoch,
			Home:  n.cfg.Ownership.Home(gs.id),
		}
		if gs.role == RoleOwner {
			gh.Owner = n.cfg.NodeID
			gh.Addr = h.Addr
			gh.FollowSeq = gs.ctrl.JournalSeq()
			h.Owned = append(h.Owned, gs.id)
		} else {
			gh.FollowSeq = gs.follower.LastSeq()
			if l, err := n.leases.Read(gs.id); err == nil && l != nil {
				gh.Owner, gh.Addr, gh.Epoch = l.Owner, l.Addr, l.Epoch
			}
		}
		gs.mu.Unlock()
		h.Groups = append(h.Groups, gh)
	}
	return h
}

// Controller returns the live controller for group g and whether this
// node currently owns it. Tests use it to reach group state directly.
func (n *Node) Controller(g int) (*protocol.Controller, bool) {
	gs := n.groups[g]
	gs.mu.Lock()
	defer gs.mu.Unlock()
	return gs.ctrl, gs.role == RoleOwner
}

// trackConn registers an accepted connection so shutdown can sever
// live sessions (their goroutines block in Receive otherwise). Returns
// false when the node is already stopping.
func (n *Node) trackConn(c net.Conn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	n.conns[c] = struct{}{}
	return true
}

func (n *Node) untrackConn(c net.Conn) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
}

// shutdown stops the accept loop, lease loop and every live session.
func (n *Node) shutdown() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	ln := n.ln
	n.ln = nil
	conns := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	close(n.stop)
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	n.wg.Wait()
}

// Close stops the router and lease loop and shuts every group down.
// Owned groups release their journals through the controller's
// graceful close (final checkpoint); leases are left to expire so a
// successor claims the next epoch.
func (n *Node) Close() error {
	n.shutdown()
	var err error
	for _, gs := range n.groups {
		gs.mu.Lock()
		if cerr := gs.ctrl.Close(); cerr != nil && err == nil {
			err = cerr
		}
		gs.mu.Unlock()
	}
	return err
}

// kill simulates a crash for chaos tests: loops, listener and live
// sessions die, but group controllers and their journals are abandoned
// un-closed — no shutdown checkpoint, no lease release, exactly the
// on-disk state a kill -9 leaves.
func (n *Node) kill() { n.shutdown() }
