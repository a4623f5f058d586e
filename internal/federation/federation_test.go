package federation

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/domain"
	"github.com/s3wlan/s3wlan/internal/faults"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/protocol"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

func TestParseOwnership(t *testing.T) {
	o, err := ParseOwnership("0=a,1=b,2=a", 3)
	if err != nil {
		t.Fatal(err)
	}
	if o.Home(0) != "a" || o.Home(1) != "b" || o.Home(2) != "a" {
		t.Fatalf("home map %v", o)
	}
	if got := o.HomeGroups("a"); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("HomeGroups(a) = %v", got)
	}
	if ns := o.Nodes(); len(ns) != 2 || ns[0] != "a" || ns[1] != "b" {
		t.Fatalf("Nodes = %v", ns)
	}
	if rt, err := ParseOwnership(o.String(), 3); err != nil || rt.String() != o.String() {
		t.Fatalf("spec round-trip: %v (%v)", rt, err)
	}
	for _, bad := range []string{"", "0=a", "0=a,1=b,3=c", "0=a,0=b,1=c", "x=a,1=b,2=c"} {
		if _, err := ParseOwnership(bad, 3); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

func TestOwnershipHashMatchesDomainShards(t *testing.T) {
	// The group of an AP must be domain.Hash % groups, and must stay so:
	// a cluster's per-group journals and leases on disk outlive a
	// release, so the literal groups below may never move.
	o, err := DefaultOwnership([]string{"a", "b", "c"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("ap-%d", i)
		if got, want := o.GroupOfAP(trace.APID(id)), int(domain.Hash(id)%3); got != want {
			t.Fatalf("GroupOfAP(%s) = %d, want %d", id, got, want)
		}
	}
	for id, want := range map[trace.APID]int{"ap-0": 0, "ap-1": 1, "ap-2": 2} {
		if got := o.GroupOfAP(id); got != want {
			t.Errorf("GroupOfAP(%s) = %d, want %d", id, got, want)
		}
	}
}

func TestLeaseClaimRenewExpiry(t *testing.T) {
	now := int64(1_000_000)
	s, err := newLeaseStore(t.TempDir(), func() int64 { return now })
	if err != nil {
		t.Fatal(err)
	}
	const ttl = time.Second

	// Fresh group: first claim wins epoch 1.
	l, won, err := s.Claim(0, nil, "a", "addr-a", ttl)
	if err != nil || !won || l.Epoch != 1 {
		t.Fatalf("first claim: %+v won=%v err=%v", l, won, err)
	}
	// A live lease is not claimable.
	cur, _ := s.Read(0)
	if _, won, _ := s.Claim(0, cur, "b", "addr-b", ttl); won {
		t.Fatal("claimed over a live lease")
	}
	// Renewal by the owner succeeds; by anyone else fails.
	now += 500
	if _, ok, _ := s.Renew(0, "a", 1, "addr-a", ttl); !ok {
		t.Fatal("owner renewal failed")
	}
	if _, ok, _ := s.Renew(0, "b", 1, "addr-b", ttl); ok {
		t.Fatal("non-owner renewed")
	}

	// Expiry: claimable again, epoch bumps, and the O_EXCL gate admits
	// exactly one of two racing claimants.
	now += int64(ttl/time.Millisecond) + 1
	cur, _ = s.Read(0)
	if !cur.Expired(now) {
		t.Fatal("lease not expired")
	}
	l2, won2, err := s.Claim(0, cur, "b", "addr-b", ttl)
	if err != nil || !won2 || l2.Epoch != 2 {
		t.Fatalf("takeover claim: %+v won=%v err=%v", l2, won2, err)
	}
	if _, won3, _ := s.Claim(0, cur, "c", "addr-c", ttl); won3 {
		t.Fatal("rival claim for the same epoch also won")
	}
	// The stale owner's renewal now fails: self-demotion trigger.
	if _, ok, _ := s.Renew(0, "a", 1, "addr-a", ttl); ok {
		t.Fatal("superseded owner renewed")
	}
}

// TestRenewConcurrentGroups renews four groups from four goroutines at
// once, as the lease loop and a test's Tick can: every renewal reads and
// writes through the store's one buffer, so each group must still end
// holding its own lease, and a refused renewal hands back the usurper's.
func TestRenewConcurrentGroups(t *testing.T) {
	s, err := newLeaseStore(t.TempDir(), func() int64 { return 1000 })
	if err != nil {
		t.Fatal(err)
	}
	const ttl, groups = time.Second, 4
	who := func(g int) (owner, addr string) { return fmt.Sprintf("owner-%d", g), fmt.Sprintf("addr-%d", g) }
	for g := 0; g < groups; g++ {
		owner, addr := who(g)
		if _, won, err := s.Claim(g, nil, owner, addr, ttl); err != nil || !won {
			t.Fatalf("claim %d: won=%v err=%v", g, won, err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			owner, addr := who(g)
			for i := 0; i < 50; i++ {
				if usurper, ok, err := s.Renew(g, owner, 1, addr, ttl); !ok || err != nil || usurper != nil {
					t.Errorf("group %d renewal %d: ok=%v err=%v usurper=%+v", g, i, ok, err, usurper)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < groups; g++ {
		owner, addr := who(g)
		if l, err := s.Read(g); err != nil || l == nil || l.Group != g || l.Owner != owner || l.Addr != addr || l.Epoch != 1 {
			t.Errorf("group %d after concurrent renewals: %+v, %v", g, l, err)
		}
	}
	if usurper, ok, err := s.Renew(0, "owner-1", 1, "addr-1", ttl); ok || err != nil || usurper == nil || usurper.Owner != "owner-0" {
		t.Errorf("a non-owner's renewal: ok=%v err=%v usurper=%+v, want owner-0's lease", ok, err, usurper)
	}
}

// newTestCluster builds size nodes over one shared root with one group
// per node, listening on loopback, and returns them with their addrs.
func newTestCluster(t *testing.T, root string, size int, ttl time.Duration) ([]*Node, []string) {
	t.Helper()
	names := make([]string, size)
	for i := range names {
		names[i] = fmt.Sprintf("node-%d", i)
	}
	own, err := DefaultOwnership(names, size)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, size)
	addrs := make([]string, size)
	for i := range nodes {
		n, err := NewNode(Config{
			NodeID:      names[i],
			Root:        root,
			Ownership:   own,
			LeaseTTL:    ttl,
			NewSelector: func() wlan.Selector { return baseline.LLF{} },
			Journal:     journal.Options{Fsync: journal.FsyncAlways},
			Timeout:     5 * time.Second,
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
	return nodes, addrs
}

// TestClusterSettlesRoutesAndFailsOver is the in-process 3-node story:
// home owners claim their groups, peers are served through any node
// (local or relayed), killing a node moves its group to a survivor
// within the lease interval, and the rejoined node comes back as a
// follower.
func TestClusterSettlesRoutesAndFailsOver(t *testing.T) {
	root := t.TempDir()
	const ttl = 500 * time.Millisecond
	nodes, addrs := newTestCluster(t, root, 3, ttl)
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	}()

	// Settle: every group gets an owner.
	for g := 0; g < 3; g++ {
		if _, err := nodes[0].WaitOwner(g, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	h := nodes[1].Health()
	if h.NodeID != "node-1" || len(h.Owned) != 1 || h.Owned[0] != 1 {
		t.Fatalf("node-1 health %+v", h)
	}

	// Register APs in every group through one node: AP hellos relay to
	// each AP's group owner.
	var aps []*protocol.APAgent
	byGroup := map[int]trace.APID{}
	own := nodes[0].cfg.Ownership
	for i := 0; len(byGroup) < 3 || i < 6; i++ {
		id := trace.APID(fmt.Sprintf("ap-%d", i))
		a, err := protocol.DialAP(addrs[0], id, 10e6, 5*time.Second)
		if err != nil {
			t.Fatalf("ap %s via node-0: %v", id, err)
		}
		aps = append(aps, a)
		if _, seen := byGroup[own.GroupOfAP(id)]; !seen {
			byGroup[own.GroupOfAP(id)] = id
		}
		if i > 32 {
			t.Fatal("hash never covered all groups")
		}
	}
	defer func() {
		for _, a := range aps {
			a.Close()
		}
	}()

	// A station in group 2 associates through node-0 (relay unless 2
	// is local) and lands on an AP of its own group.
	var user trace.UserID
	for i := 0; ; i++ {
		user = trace.UserID(fmt.Sprintf("u-%d", i))
		if own.GroupOfUser(user) == 2 {
			break
		}
	}
	st, err := protocol.DialStation(addrs[0], user, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := st.Associate(1e5)
	if err != nil {
		t.Fatal(err)
	}
	if own.GroupOfAP(ap) != 2 {
		t.Fatalf("user of group 2 assigned AP %s of group %d", ap, own.GroupOfAP(ap))
	}
	st.Close()

	// Kill node-2 (owner of group 2) without Close: its lease expires
	// and a survivor takes the group over within the lease interval.
	victim := nodes[2]
	nodes[2] = nil
	victim.kill()
	deadline := time.Now().Add(10 * ttl)
	var takeover *Lease
	for {
		l, err := nodes[0].leases.Read(2)
		if err == nil && l != nil && l.Owner != "node-2" && !l.Expired(nodes[0].cfg.nowMs()) {
			takeover = l
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no takeover of group 2 within 10 lease TTLs")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if takeover.Epoch < 2 {
		t.Fatalf("takeover kept epoch %d", takeover.Epoch)
	}

	// The station reconnects through node-1 and is served again —
	// same group, state preserved (its previous AP is still believed).
	st2, err := protocol.DialStation(addrs[1], user, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ap2, err := st2.Associate(1e5)
	if err != nil {
		t.Fatalf("associate after failover: %v", err)
	}
	if own.GroupOfAP(ap2) != 2 {
		t.Fatalf("post-failover AP %s in group %d", ap2, own.GroupOfAP(ap2))
	}

	// Rejoin: a fresh node-2 process on the same root must come back
	// as a follower of group 2 — the takeover lease is live.
	own2, _ := DefaultOwnership([]string{"node-0", "node-1", "node-2"}, 3)
	re, err := NewNode(Config{
		NodeID:      "node-2",
		Root:        root,
		Ownership:   own2,
		LeaseTTL:    ttl,
		NewSelector: func() wlan.Selector { return baseline.LLF{} },
		Journal:     journal.Options{Fsync: journal.FsyncAlways},
		Timeout:     5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := re.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * ttl / 2)
	rh := re.Health()
	for _, gh := range rh.Groups {
		if gh.Group == 2 && gh.Role != RoleFollower {
			t.Fatalf("rejoined node reclaimed group 2: %+v", gh)
		}
	}
	if len(rh.Owned) != 0 {
		t.Fatalf("rejoined node owns %v without any lease expiring", rh.Owned)
	}
}

// TestRouterAcceptSurvivesTransientErrors serves the router through a
// listener that fails its first accepts: the router rides them out on
// the controller's accept loop, backing off and counting each retry,
// and a station still associates through it.
func TestRouterAcceptSurvivesTransientErrors(t *testing.T) {
	own, err := DefaultOwnership([]string{"node-0"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(Config{
		NodeID:       "node-0",
		Root:         t.TempDir(),
		Ownership:    own,
		LeaseTTL:     time.Minute, // no expiry during the test
		NewSelector:  func() wlan.Selector { return baseline.LLF{} },
		Journal:      journal.Options{Fsync: journal.FsyncOff},
		Timeout:      5 * time.Second,
		WrapListener: func(ln net.Listener) net.Listener { return &faults.FlakyListener{Listener: ln, FailFirst: 3} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	retries := obs.GetCounter("protocol.accept.retries")
	before := retries.Value()
	addr, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.Tick() // node-0 claims its one group
	ctrl, owned := n.Controller(0)
	if !owned {
		t.Fatal("node-0 does not own group 0 after its first tick")
	}
	if err := ctrl.RegisterAP("ap-0", 1e6); err != nil {
		t.Fatal(err)
	}
	st, err := protocol.DialStation(addr, "u-0", 5*time.Second)
	if err != nil {
		t.Fatalf("dial through transient accept errors: %v", err)
	}
	defer st.Close()
	if ap, err := st.Associate(100); err != nil || ap != "ap-0" {
		t.Fatalf("associate through the router = %q, %v", ap, err)
	}
	if got := retries.Value(); got < before+3 {
		t.Errorf("protocol.accept.retries rose by %d, want >= 3", got-before)
	}
}

// TestRouterRefusesUnownedGroup pins the no-loop rule: a node asked
// for a group with no live owner replies with an error instead of
// forwarding.
func TestRouterRefusesUnownedGroup(t *testing.T) {
	own, _ := DefaultOwnership([]string{"node-0", "ghost"}, 2)
	n, err := NewNode(Config{
		NodeID:      "node-0",
		Root:        t.TempDir(),
		Ownership:   own,
		LeaseTTL:    time.Minute, // no expiry during the test
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
	n.Tick() // node-0 claims group 0; group 1 stays unowned (ghost never runs)

	// An AP of the ghost's group gets a clean error, not a hang.
	var ghostAP trace.APID
	for i := 0; ; i++ {
		ghostAP = trace.APID(fmt.Sprintf("ap-%d", i))
		if own.GroupOfAP(ghostAP) == 1 {
			break
		}
	}
	if _, err := protocol.DialAP(addr, ghostAP, 1e6, 2*time.Second); err == nil {
		t.Fatal("dial into an unowned group succeeded")
	} else if !strings.Contains(err.Error(), "no live owner") {
		t.Fatalf("unexpected refusal: %v", err)
	}
}

// Nodes returns the distinct node IDs in the map, sorted.
func (o *Ownership) Nodes() []string {
	seen := make(map[string]bool, len(o.home))
	var ns []string
	for _, n := range o.home {
		if !seen[n] {
			seen[n] = true
			ns = append(ns, n)
		}
	}
	sort.Strings(ns)
	return ns
}
