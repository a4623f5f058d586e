// Package domain is the shared association-domain core: the one place
// in the repository that holds AP registry state, per-AP load and user
// accounting, capacity admission, view snapshotting for association
// policies, versioned check-and-retry commits, and session-log emission.
//
// Both execution paths are thin drivers over it — the batch simulator
// (internal/wlan) replays a trace through a Domain per controller, and
// the live TCP controller (internal/protocol) serves stations from one —
// so a policy decision is byte-identical in simulation and deployment by
// construction: the same view assembly, the same admission predicate,
// the same commit arithmetic.
//
// # Sharding
//
// A Domain is partitioned into a configurable number of shards by a
// stable AP→shard hash (FNV-1a of the AP ID). Each shard owns its APs
// behind its own RWMutex and carries its own version counter, bumped on
// every structural change (AP set, membership, failure state). Policy
// selection runs against a snapshot: ViewsInto collects, per shard under its
// read lock, each AP's aggregates (capacity, load, RSSI, user count)
// plus the per-shard version vector, the selector deliberates holding
// no lock, and Commit re-validates only the versions of the shards the
// decision touches.
//
// # Views
//
// A snapshot never copies membership, so it costs O(APs) however many
// users are resident. A policy that needs membership asks the view:
// APView.Intersect (and SumDemands, a sum over it) looks a sorted user
// list up on the AP (the S³ selector passes the requester's close
// friends — O(friends) map hits under one shard read-lock), and
// APView.Members materialises a sorted copy for callers that must
// iterate everyone. An AP's membership is held once, as a map; the
// readers that need order (Members, Info, ExportState, an eviction)
// sort its keys when they read. Views built by hand with
// APView.WithMembers answer all three from fixed lists.
//
// A decision that lands entirely inside one shard commits on the fast
// path — one shard lock, one version check — so concurrent
// single-shard associations scale with the shard count. A placement
// set that spans shards (S³'s Algorithm 1 distributing a social clique
// across APs) takes the deterministic two-phase path: the involved
// shards are locked in ascending index order, all versions validated,
// all placements applied, then released — all-or-nothing, so a stale
// snapshot never half-commits a clique.
//
// Commit with a nil Version skips validation (the forced commit a
// caller uses after exhausting retries, and the batch simulator's
// default: single-threaded replay can never be stale).
//
// # Staleness model
//
// The version vector is collected shard-by-shard without a global lock,
// so a snapshot is not a consistent cut across shards; validation is
// per-shard. A change in a shard the decision does not touch never
// invalidates the commit. This is deliberate: membership mutation stays
// serialized per shard, so staleness can cost decision optimality but
// never state consistency — the same contract the live controller has
// always documented for its retry loop.
//
// The same rule covers membership on demand: a view's aggregates are as
// of the snapshot, its Intersect/Members reads see the domain's current
// state. Every membership change bumps its shard's version, so when the
// shard a decision lands on moved between the snapshot and the read,
// Commit fails with ErrStale and the decision is re-made; a change in a
// shard it does not touch is tolerated, as it always was.
package domain
