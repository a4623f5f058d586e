// Package domain is the shared association-domain core: the one place
// in the repository that holds AP registry state, per-AP load and user
// accounting, capacity admission, view snapshotting for association
// policies, and atomic commits.
//
// Both execution paths are thin drivers over it — the batch simulator
// (internal/wlan) replays a trace through a Domain per controller, and
// the live TCP controller (internal/protocol) serves stations from one —
// so a policy decision is byte-identical in simulation and deployment by
// construction: the same view assembly, the same admission predicate,
// the same commit arithmetic.
//
// # Views
//
// Policy selection runs against a snapshot: ViewsInto collects, under
// one read lock, each AP's aggregates (capacity, load, user count) in
// AP-ID order plus the domain version. A snapshot never
// copies membership, so it costs O(APs) however many users are
// resident. A policy that needs membership asks the view:
// APView.Intersect (and SumDemands, a sum over it) looks a sorted user
// list up on the AP (the S³ selector passes the requester's close
// friends — O(friends) map hits under one read lock), and
// APView.Members materialises a sorted copy for callers that must
// iterate everyone. An AP's membership is held once, as a map; the
// readers that need order (Members, ExportState) sort its keys when
// they read. Membership is read only through a domain's views: a view
// literal has none. ExportState is the one full-state read, under one
// read lock.
//
// # Staleness model
//
// A Domain is one lock domain — one RWMutex, one version counter bumped
// on every structural or membership change (AP set, capacity, a commit,
// a leave; not a load report) — because an S³ decision reads the
// requester's friends on every candidate AP, so the whole domain is
// what it must be consistent against. Both drivers serialize
// their decisions themselves: the simulator's event loop is one thread,
// and the live controller snapshots, selects and commits under one hold
// of its own mutex. Nothing mutates the domain between a snapshot and
// its commit, so every commit passes a nil Version and no decision is
// ever stale. Commit still checks a non-nil Version against the counter
// and fails with ErrStale, nothing applied, when they differ.
package domain
