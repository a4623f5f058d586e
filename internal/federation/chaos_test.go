package federation

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/faults"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/protocol"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// Chaos suite: the cluster under injected transport faults, a kill -9
// of a replica, storage-side torn tails, and a partitioned owner —
// always against the oracle invariant that replaying a group's journal
// into a fresh single-node controller reproduces the owner's exact
// assignment state, with no acknowledged association lost.

// dialAPRetry registers an AP through any of addrs, retrying across
// transient injected faults.
func dialAPRetry(t *testing.T, addrs []string, id trace.APID, timeout time.Duration) *protocol.APAgent {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var lastErr error
	for i := 0; ; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("register %s: %v", id, lastErr)
		}
		a, err := protocol.DialAP(addrs[i%len(addrs)], id, 10e6, timeout)
		if err == nil {
			return a
		}
		lastErr = err
		time.Sleep(25 * time.Millisecond)
	}
}

// associateRetry opens a fresh station for user through any of addrs
// and associates, retrying across faults and failover windows. The
// returned ack is the association the cluster must never lose while
// the station stays connected.
func associateRetry(t *testing.T, addrs []string, user trace.UserID, timeout time.Duration) (*protocol.Station, trace.APID) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var lastErr error
	for i := 0; ; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("associate %s: %v", user, lastErr)
		}
		st, err := protocol.DialStation(addrs[i%len(addrs)], user, timeout)
		if err != nil {
			lastErr = err
			time.Sleep(25 * time.Millisecond)
			continue
		}
		ap, err := st.Associate(64e3)
		if err != nil {
			st.Close()
			lastErr = err
			time.Sleep(25 * time.Millisecond)
			continue
		}
		return st, ap
	}
}

// assignmentsOf flattens a controller snapshot to user→AP.
func assignmentsOf(snap map[trace.APID]protocol.APStatus) map[trace.UserID]trace.APID {
	out := make(map[trace.UserID]trace.APID)
	for ap, st := range snap {
		for _, u := range st.Users {
			out[u] = ap
		}
	}
	return out
}

// copyDir snapshots a quiesced group journal directory for oracle
// replay without touching the live files.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// oracleAssignments replays a copied group journal into a fresh
// single-node controller — the ground truth the cluster's owners must
// match byte-for-byte at the assignment level.
func oracleAssignments(t *testing.T, groupDir string) map[trace.UserID]trace.APID {
	t.Helper()
	oracle, err := protocol.NewController(baseline.LLF{},
		protocol.WithJournal(copyDir(t, groupDir), journal.Options{Fsync: journal.FsyncOff}))
	if err != nil {
		t.Fatalf("oracle replay of %s: %v", groupDir, err)
	}
	defer oracle.Close()
	return assignmentsOf(oracle.Snapshot())
}

// liveOwnerCtrl finds the controller currently owning group g across
// the surviving nodes.
func liveOwnerCtrl(t *testing.T, nodes []*Node, g int) *protocol.Controller {
	t.Helper()
	for _, n := range nodes {
		if n == nil {
			continue
		}
		if c, ok := n.Controller(g); ok {
			return c
		}
	}
	t.Fatalf("no live owner for group %d", g)
	return nil
}

// TestFederationChaosKillRejoinOracle is the headline chaos scenario:
// a 3-node cluster under transport faults (injected accept failures
// and delays) serves a station workload, loses one replica to kill -9
// mid-run, fails its group over to a survivor within the lease
// interval, keeps serving, takes the dead node back as a follower, and
// at the end every group owner's assignment state is byte-identical to
// an oracle single-node replay of that group's journal — zero
// acknowledged associations lost.
func TestFederationChaosKillRejoinOracle(t *testing.T) {
	root := t.TempDir()
	const ttl = 400 * time.Millisecond
	const timeout = 15 * time.Second
	names := []string{"node-0", "node-1", "node-2"}
	own, err := DefaultOwnership(names, 3)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, 3)
	addrs := make([]string, 3)
	for i := range nodes {
		seed := int64(1000 + i)
		n, err := NewNode(Config{
			NodeID:      names[i],
			Root:        root,
			Ownership:   own,
			LeaseTTL:    ttl,
			NewSelector: func() wlan.Selector { return baseline.LLF{} },
			Journal:     journal.Options{Fsync: journal.FsyncAlways},
			Timeout:     timeout,
			WrapListener: func(ln net.Listener) net.Listener {
				return &faults.Listener{
					Listener: &faults.FlakyListener{Listener: ln, FailFirst: 1, FailEvery: 11},
					Seed:     seed,
					Source:   faults.Const(faults.ConnConfig{DelayProb: 0.15, MaxDelay: 2 * time.Millisecond}),
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := n.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i], addrs[i] = n, addr
	}
	stations := map[trace.UserID]*protocol.Station{}
	defer func() {
		for _, st := range stations {
			st.Close()
		}
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	}()

	for g := 0; g < 3; g++ {
		if _, err := nodes[0].WaitOwner(g, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// Two APs per group, registered through rotating front-ends so some
	// registrations relay.
	perGroup := map[int]int{}
	var aps []*protocol.APAgent
	for i := 0; perGroup[0] < 2 || perGroup[1] < 2 || perGroup[2] < 2; i++ {
		if i > 64 {
			t.Fatal("hash never gave every group two APs")
		}
		id := trace.APID(fmt.Sprintf("ap-%d", i))
		g := own.GroupOfAP(id)
		if perGroup[g] >= 2 {
			continue
		}
		aps = append(aps, dialAPRetry(t, addrs, id, timeout))
		perGroup[g]++
	}
	defer func() {
		for _, a := range aps {
			a.Close()
		}
	}()

	// Workload A: 24 stations associate across all three front-ends and
	// stay connected. acked records the last acknowledged AP per user.
	acked := map[trace.UserID]trace.APID{}
	for i := 0; i < 24; i++ {
		user := trace.UserID(fmt.Sprintf("chaos-u-%d", i))
		st, ap := associateRetry(t, addrs, user, timeout)
		stations[user] = st
		acked[user] = ap
		if own.GroupOfAP(ap) != own.GroupOfUser(user) {
			t.Fatalf("user %s of group %d acked onto AP %s of group %d",
				user, own.GroupOfUser(user), ap, own.GroupOfAP(ap))
		}
	}

	// kill -9 node-2: no graceful close, no lease release. Sessions it
	// carried die; the journal keeps only what was fsynced.
	victim := nodes[2]
	nodes[2] = nil
	killedAt := time.Now()
	victim.kill()
	survivors := addrs[:2]

	// Takeover: group 2's lease moves to a survivor. Timing is recorded
	// against the lease interval (the acceptance bound, with CI slack).
	var takeover *Lease
	for deadline := time.Now().Add(10 * ttl); ; {
		l, err := nodes[0].leases.Read(2)
		if err == nil && l != nil && l.Owner != "node-2" && !l.Expired(nodes[0].cfg.nowMs()) {
			takeover = l
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("group 2 not taken over within 10 lease TTLs")
		}
		time.Sleep(5 * time.Millisecond)
	}
	failover := time.Since(killedAt)
	t.Logf("group 2 failover in %v (lease TTL %v), epoch %d by %s", failover, ttl, takeover.Epoch, takeover.Owner)
	if takeover.Epoch < 2 {
		t.Fatalf("takeover kept epoch %d", takeover.Epoch)
	}
	if failover > 5*ttl {
		t.Fatalf("failover took %v, over 5 lease TTLs", failover)
	}

	// Workload B: every workload-A station re-homes through a survivor
	// (old conn closed first, so the re-associate is the user's final
	// journal record), and 24 new stations join.
	for i := 0; i < 24; i++ {
		user := trace.UserID(fmt.Sprintf("chaos-u-%d", i))
		stations[user].Close()
		delete(stations, user)
		st, ap := associateRetry(t, survivors, user, timeout)
		stations[user] = st
		acked[user] = ap
	}
	for i := 24; i < 48; i++ {
		user := trace.UserID(fmt.Sprintf("chaos-u-%d", i))
		st, ap := associateRetry(t, survivors, user, timeout)
		stations[user] = st
		acked[user] = ap
	}

	// Rejoin: a fresh node-2 on the same root must come back following,
	// and its group-2 standby must catch up to the new owner's head.
	re, err := NewNode(Config{
		NodeID:      "node-2",
		Root:        root,
		Ownership:   own,
		LeaseTTL:    ttl,
		NewSelector: func() wlan.Selector { return baseline.LLF{} },
		Journal:     journal.Options{Fsync: journal.FsyncAlways},
		Timeout:     timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := re.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ownerSeq := liveOwnerCtrl(t, nodes, 2).JournalSeq()
	for deadline := time.Now().Add(5 * time.Second); ; {
		rh := re.Health()
		if len(rh.Owned) != 0 {
			t.Fatalf("rejoined node claimed %v over live leases", rh.Owned)
		}
		if rh.Groups[2].Role == RoleFollower && rh.Groups[2].FollowSeq >= ownerSeq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rejoined follower stuck at seq %d, owner at %d", rh.Groups[2].FollowSeq, ownerSeq)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Quiesced oracle check, per group: copy the journal directory,
	// replay it into a fresh single-node controller, and compare with
	// the live owner. Every acknowledged association must be present.
	for g := 0; g < 3; g++ {
		live := assignmentsOf(liveOwnerCtrl(t, nodes, g).Snapshot())
		oracle := oracleAssignments(t, filepath.Join(root, fmt.Sprintf("group-%d", g)))
		if len(live) != len(oracle) {
			t.Fatalf("group %d: live has %d assignments, oracle %d", g, len(live), len(oracle))
		}
		for u, ap := range live {
			if oracle[u] != ap {
				t.Fatalf("group %d: live %s→%s, oracle %s→%s", g, u, ap, u, oracle[u])
			}
		}
		for u, ap := range acked {
			if own.GroupOfUser(u) != g {
				continue
			}
			if oracle[u] != ap {
				t.Fatalf("group %d: acked %s→%s lost (oracle has %q)", g, u, ap, oracle[u])
			}
		}
	}
}

// TestFederationTornTailTakeover injects a storage fault on the owner:
// past a byte offset its segment writes silently never land (the
// kill -9 page-cache race). The follower only ever sees landed bytes,
// so takeover promotes cleanly from the durable prefix and the new
// owner keeps serving.
func TestFederationTornTailTakeover(t *testing.T) {
	root := t.TempDir()
	const ttl = 300 * time.Millisecond
	names := []string{"node-0", "node-1"}
	own, err := DefaultOwnership(names, 2)
	if err != nil {
		t.Fatal(err)
	}
	build := func(id string, jopts journal.Options) *Node {
		n, err := NewNode(Config{
			NodeID:      id,
			Root:        root,
			Ownership:   own,
			LeaseTTL:    ttl,
			NewSelector: func() wlan.Selector { return baseline.LLF{} },
			Journal:     jopts,
			Timeout:     5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	// node-0's journals tear at byte 600: registrations land, later
	// associations are acked but never durable. torn keeps group 0's
	// segment so the test can see how far past the tear it has written.
	const tornAt = 600
	var (
		tornMu sync.Mutex
		torn   *faults.File
	)
	victim := build("node-0", journal.Options{
		Fsync: journal.FsyncOff,
		OpenFile: func(path string) (journal.File, error) {
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			ff := faults.WrapFile(f, 0, faults.Const(faults.FileConfig{TornAtByte: tornAt}))
			if filepath.Base(filepath.Dir(path)) == "group-0" {
				tornMu.Lock()
				torn = ff
				tornMu.Unlock()
			}
			return ff, nil
		},
	})
	healthy := build("node-1", journal.Options{Fsync: journal.FsyncAlways})
	defer healthy.Close()
	vaddr, err := victim.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	haddr, err := healthy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 2; g++ {
		if _, err := victim.WaitOwner(g, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// Register two group-0 APs through the victim, then associate users
	// until the victim's journal head runs past the tear.
	var ids []trace.APID
	for i := 0; len(ids) < 2; i++ {
		id := trace.APID(fmt.Sprintf("torn-ap-%d", i))
		if own.GroupOfAP(id) == 0 {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		a := dialAPRetry(t, []string{vaddr}, id, 5*time.Second)
		defer a.Close()
	}
	vctrl, ok := victim.Controller(0)
	if !ok {
		t.Fatal("victim does not own group 0")
	}
	// The loop runs on bytes, not on a record count: a record is ≈ 48
	// bytes, and the owner must be at least two of them (128 bytes with
	// margin) past the tear, whatever a record weighs in this release.
	tornMu.Lock()
	seg := torn
	tornMu.Unlock()
	if seg == nil {
		t.Fatal("group 0's journal never opened a segment")
	}
	for i := 0; seg.Written() < tornAt+128; i++ {
		user := trace.UserID(fmt.Sprintf("torn-u-%d", i))
		if own.GroupOfUser(user) != 0 {
			continue
		}
		st, _ := associateRetry(t, []string{vaddr}, user, 5*time.Second)
		st.Close()
	}

	// The healthy follower can only have the durable prefix.
	healthy.Tick()
	followSeq := healthy.Health().Groups[0].FollowSeq
	if followSeq >= vctrl.JournalSeq() {
		t.Fatalf("follower at %d not behind torn owner at %d", followSeq, vctrl.JournalSeq())
	}

	victim.kill()
	for deadline := time.Now().Add(10 * ttl); ; {
		l, err := healthy.leases.Read(0)
		if err == nil && l != nil && l.Owner == "node-1" && !l.Expired(healthy.cfg.nowMs()) {
			if l.Epoch < 2 {
				t.Fatalf("takeover kept epoch %d", l.Epoch)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no takeover from torn-tailed owner")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The promoted owner serves from the durable prefix: a fresh
	// group-0 association lands on a recovered AP.
	var user trace.UserID
	for i := 0; ; i++ {
		user = trace.UserID(fmt.Sprintf("post-torn-u-%d", i))
		if own.GroupOfUser(user) == 0 {
			break
		}
	}
	st, ap := associateRetry(t, []string{haddr}, user, 5*time.Second)
	defer st.Close()
	if own.GroupOfAP(ap) != 0 {
		t.Fatalf("post-takeover AP %s not in group 0", ap)
	}
}

// TestRelayPartitionedOwner pins the partition behavior of the routing
// front-end: a lease naming an unreachable owner yields a fast, clean
// refusal ("owner unreachable"), never a hang or a forwarding loop.
func TestRelayPartitionedOwner(t *testing.T) {
	own, err := DefaultOwnership([]string{"node-0", "ghost"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(Config{
		NodeID:      "node-0",
		Root:        t.TempDir(),
		Ownership:   own,
		LeaseTTL:    time.Minute,
		NewSelector: func() wlan.Selector { return baseline.LLF{} },
		Journal:     journal.Options{Fsync: journal.FsyncOff},
		Timeout:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	addr, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.Tick()

	// A live lease whose owner is behind a partition: the addr is a
	// blackholed port on loopback (nothing listens there).
	dead := &Lease{Group: 1, Epoch: 3, Owner: "ghost", Addr: "127.0.0.1:1",
		Renewed: n.cfg.nowMs(), TTL: int64(time.Minute / time.Millisecond)}
	if err := n.leases.write(dead); err != nil {
		t.Fatal(err)
	}
	var user trace.UserID
	for i := 0; ; i++ {
		user = trace.UserID(fmt.Sprintf("part-u-%d", i))
		if own.GroupOfUser(user) == 1 {
			break
		}
	}
	start := time.Now()
	_, err = protocol.DialStation(addr, user, 2*time.Second)
	if err == nil {
		t.Fatal("dial through a partitioned owner succeeded")
	}
	if !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("want an owner-unreachable refusal, got: %v", err)
	}
	if since := time.Since(start); since > 3*time.Second {
		t.Fatalf("refusal took %v", since)
	}
}
