package federation

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/s3wlan/s3wlan/internal/atomicfile"
)

// Cross-process ownership arbitration on the shared cluster root.
//
// Each group has one lease file, `leases/group-<g>.json`, naming the
// current owner, its serve address, the ownership epoch and the last
// renewal time. The owner rewrites it (atomically, temp+rename) every
// renewal interval; a lease older than its TTL is expired and any
// replica may take the group over.
//
// Epoch increments are serialized by O_EXCL claim files: a claimant
// creates `leases/claim-<g>.<epoch>` before writing the lease, so two
// followers racing for the same takeover cannot both win the same
// epoch — exactly one O_EXCL create succeeds, the loser observes the
// new lease and stays a follower. A rejoining node goes through the
// same gate, and because a live owner keeps its lease fresh, the
// rejoiner finds the lease valid and comes back as a follower instead
// of reclaiming its old groups.
//
// The journal's record epochs fence the residual window this protocol
// cannot close on plain shared disk (an owner that stalls longer than
// the TTL without noticing): a superseded owner's appends carry the
// old epoch, followers drop them (journal.Follower), and the stalled
// owner demotes itself at its next renewal when it finds the epoch
// moved (node.go).

// Lease is one group's ownership record. Times are unix milliseconds:
// lease TTLs are fractions of a second in tests and single-digit
// seconds in production, so second granularity would make expiry
// decisions off by up to a full TTL.
type Lease struct {
	Group   int    `json:"group"`
	Epoch   uint64 `json:"epoch"`
	Owner   string `json:"owner"`
	Addr    string `json:"addr,omitempty"`
	Renewed int64  `json:"renewed_unix_ms"`
	TTL     int64  `json:"ttl_ms"`
}

// Expired reports whether the lease is stale at unix-millisecond now.
func (l *Lease) Expired(now int64) bool { return now-l.Renewed > l.TTL }

// leaseStore reads, renews and claims group leases under root.
type leaseStore struct {
	dir string       // <root>/leases
	now func() int64 // unix milliseconds

	mu  sync.Mutex   // Renew's, held across its read and its write
	buf bytes.Buffer // Renew's file image: the lease read, then the one written
	cur Lease        // Renew's decoded lease, then its successor
}

func newLeaseStore(root string, now func() int64) (*leaseStore, error) {
	dir := filepath.Join(root, "leases")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("federation: lease dir: %w", err)
	}
	return &leaseStore{dir: dir, now: now}, nil
}

func (s *leaseStore) path(group int) string {
	return filepath.Join(s.dir, fmt.Sprintf("group-%d.json", group))
}

// Read returns group's lease, or (nil, nil) when no lease exists yet.
func (s *leaseStore) Read(group int) (*Lease, error) {
	return s.readInto(group, new(bytes.Buffer), new(Lease))
}

// readInto is Read through buf and into l, both the caller's.
func (s *leaseStore) readInto(group int, buf *bytes.Buffer, l *Lease) (*Lease, error) {
	f, err := os.Open(s.path(group))
	if err == nil {
		buf.Reset()
		_, err = buf.ReadFrom(f)
		f.Close()
	}
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("federation: read lease %d: %w", group, err)
	}
	*l = Lease{}
	if err := json.Unmarshal(buf.Bytes(), l); err != nil {
		// A half-written lease cannot happen (atomic rename); damaged
		// bytes mean operator error. Treat as absent so the cluster can
		// re-claim rather than wedge.
		return nil, nil
	}
	return l, nil
}

// write rewrites group's lease atomically.
func (s *leaseStore) write(l *Lease) error {
	return atomicfile.WriteFile(s.path(l.Group), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(l)
	})
}

// Renew refreshes an owned lease. It re-reads the file first: if the
// epoch moved or the owner changed, someone took the group over and
// the caller must demote instead; the usurper's lease, if any, is
// returned then. Both the read and the write go through the store's
// buffers: a renewal allocates only file handles, names and strings.
func (s *leaseStore) Renew(group int, owner string, epoch uint64, addr string, ttl time.Duration) (*Lease, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, err := s.readInto(group, &s.buf, &s.cur)
	if err != nil || cur == nil || cur.Epoch != epoch || cur.Owner != owner {
		if cur != nil {
			usurper := *cur
			cur = &usurper
		}
		return cur, false, err
	}
	s.cur = Lease{Group: group, Epoch: epoch, Owner: owner, Addr: addr,
		Renewed: s.now(), TTL: int64(ttl / time.Millisecond)}
	s.buf.Reset()
	if err := json.NewEncoder(&s.buf).Encode(&s.cur); err != nil {
		return nil, false, err
	}
	err = atomicfile.WriteFile(s.path(group), func(w io.Writer) error {
		_, err := w.Write(s.buf.Bytes())
		return err
	})
	return nil, err == nil, err
}

// ReadLeases scans a cluster root's lease directory and returns every
// group lease present, sorted by group — the status surface s3 proto's
// -fed-status mode prints so scripts and the chaos CI smoke can assert
// cluster state without scraping logs. A root with no leases directory
// yields an empty slice (a cluster that has not settled yet).
func ReadLeases(root string) ([]*Lease, error) {
	dir := filepath.Join(root, "leases")
	ents, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("federation: read leases: %w", err)
	}
	s := &leaseStore{dir: dir, now: func() int64 { return time.Now().UnixMilli() }}
	var out []*Lease
	for _, e := range ents {
		var g int
		if _, err := fmt.Sscanf(e.Name(), "group-%d.json", &g); err != nil {
			continue
		}
		l, err := s.Read(g)
		if err != nil || l == nil {
			continue
		}
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Group < out[j].Group })
	return out, nil
}

// Claim attempts to take ownership of group at the epoch after cur
// (nil cur claims epoch 1). The O_EXCL claim file serializes rivals;
// on success the new lease is written and returned. ok=false means a
// rival won (or the lease is no longer claimable); the caller should
// re-read and follow.
func (s *leaseStore) Claim(group int, cur *Lease, owner, addr string, ttl time.Duration) (*Lease, bool, error) {
	var epoch uint64 = 1
	if cur != nil {
		if !cur.Expired(s.now()) && cur.Owner != "" {
			return nil, false, nil // live owner; nothing to claim
		}
		epoch = cur.Epoch + 1
	}
	claim := filepath.Join(s.dir, fmt.Sprintf("claim-%d.%d", group, epoch))
	f, err := os.OpenFile(claim, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if errors.Is(err, os.ErrExist) {
			return nil, false, nil // rival claimed this epoch first
		}
		return nil, false, fmt.Errorf("federation: claim group %d epoch %d: %w", group, epoch, err)
	}
	fmt.Fprintf(f, "%s %d\n", owner, s.now())
	f.Close()

	l := &Lease{Group: group, Epoch: epoch, Owner: owner, Addr: addr,
		Renewed: s.now(), TTL: int64(ttl / time.Millisecond)}
	if err := s.write(l); err != nil {
		return nil, false, err
	}
	// Old claim files are spent tokens; reclaim the dust.
	if epoch > 1 {
		os.Remove(filepath.Join(s.dir, fmt.Sprintf("claim-%d.%d", group, epoch-1)))
	}
	return l, true, nil
}
