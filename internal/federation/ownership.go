// Package federation turns the single-process controller into an
// N-replica cluster that jointly owns the AP space.
//
// The AP and user ID spaces are partitioned into a fixed number of
// *groups* by a stable FNV-1a hash (domain.Hash % groups; the per-group
// directories on disk depend on it). Each group has one *owner* replica
// at a time: the owner runs a journal-armed protocol.Controller for the group and
// appends every mutation to the group's journal under the cluster
// root; every other replica runs a standby controller fed by a
// journal.Follower tailing that journal. Ownership is arbitrated
// through lease files on the shared root (lease.go): a follower that
// observes an expired lease claims the next epoch, catches its standby
// up to the journal head, promotes it with AttachJournal and starts
// serving — cross-process failover built from the same pieces as the
// in-process registration generations.
//
// The routing front-end (router.go) accepts peers on each node,
// resolves the group from the hello (AP ID for agents, user ID for
// stations), serves locally owned groups through
// Controller.HandleSession and relays everything else to the owner
// named by the group's lease over the binary codec.
//
// Single-node deployments never construct a Node; the controller
// behaves exactly as before.
package federation

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/s3wlan/s3wlan/internal/domain"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// Ownership is the static group→home-owner map: which node is the
// preferred owner of each group when the cluster is healthy. Failover
// reassigns ownership dynamically through leases; the static map only
// decides who claims a group first and who returns to it after a
// rejoin heals.
type Ownership struct {
	groups int
	home   []string // group -> home node id
}

// GroupOfAP returns the federation group owning AP id.
func (o *Ownership) GroupOfAP(id trace.APID) int { return o.groupOf(string(id)) }

// GroupOfUser returns the federation group serving user id. Users hash
// with the same function as APs but over their own ID space: a station
// is served by one group's owner and associates among that group's
// APs.
func (o *Ownership) GroupOfUser(id trace.UserID) int { return o.groupOf(string(id)) }

func (o *Ownership) groupOf(id string) int {
	if o.groups <= 1 {
		return 0
	}
	return int(domain.Hash(id) % uint32(o.groups))
}

// Groups returns the group count.
func (o *Ownership) Groups() int { return o.groups }

// Home returns the home owner node for group g.
func (o *Ownership) Home(g int) string { return o.home[g] }

// HomeGroups returns the groups whose home owner is node, ascending.
func (o *Ownership) HomeGroups(node string) []int {
	var gs []int
	for g, n := range o.home {
		if n == node {
			gs = append(gs, g)
		}
	}
	return gs
}

// String renders the map in ParseOwnership's spec format.
func (o *Ownership) String() string {
	parts := make([]string, o.groups)
	for g, n := range o.home {
		parts[g] = fmt.Sprintf("%d=%s", g, n)
	}
	return strings.Join(parts, ",")
}

// ParseOwnership parses an explicit "0=node-a,1=node-b,…" spec. Every
// group in [0, groups) must be assigned exactly once.
func ParseOwnership(spec string, groups int) (*Ownership, error) {
	if groups < 1 {
		return nil, fmt.Errorf("federation: ownership needs at least 1 group, got %d", groups)
	}
	home := make([]string, groups)
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" || kv[1] == "" {
			return nil, fmt.Errorf("federation: ownership entry %q, want group=node", part)
		}
		g, err := strconv.Atoi(kv[0])
		if err != nil || g < 0 || g >= groups {
			return nil, fmt.Errorf("federation: ownership group %q out of [0,%d)", kv[0], groups)
		}
		if home[g] != "" {
			return nil, fmt.Errorf("federation: group %d assigned twice", g)
		}
		home[g] = kv[1]
	}
	for g, n := range home {
		if n == "" {
			return nil, fmt.Errorf("federation: group %d unassigned", g)
		}
	}
	return &Ownership{groups: groups, home: home}, nil
}

// DefaultOwnership assigns groups to nodes round-robin — the spec-free
// default for -peers clusters: group g is homed on nodes[g % len].
func DefaultOwnership(nodes []string, groups int) (*Ownership, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("federation: ownership needs at least one node")
	}
	if groups < 1 {
		groups = len(nodes)
	}
	home := make([]string, groups)
	for g := range home {
		home[g] = nodes[g%len(nodes)]
	}
	return &Ownership{groups: groups, home: home}, nil
}
