// Package protocol implements the S³ prototype the paper validates its
// design with (Section IV): a WLAN controller as a TCP server speaking a
// framed binary wire protocol, AP agents that register and periodically
// report load, and stations that request association.
//
// The controller embeds any wlan.Selector — the S³ policy from
// internal/core or a baseline from internal/baseline — and makes live
// association decisions exactly as the simulator does, but over real
// sockets. That symmetry is the point: the same policy code path is
// exercised by the discrete-event simulation (internal/eventsim driving
// internal/wlan) and by this networked prototype, so simulated results
// carry over to the deployable artifact.
//
// Wire format: magic|length|CRC-32C frames (the journal's framing), each
// carrying one or more compactly encoded Messages — a type tag (hello,
// report, assoc, assign, …), presence flags and the flagged fields;
// codec.go has the layout. It is the only encoding and it is
// versionless: a peer that opens with anything but a frame is refused
// by the magic check.
//
// Lifecycle and failure model: an agent connection registers one AP as
// a lease — every hello and load report renews it, a re-hello from a
// reconnecting (or restarted) agent supersedes the previous connection,
// and, with WithLease, an AP whose agent stays silent past the lease is
// expired, its believed users re-homed through the association observer
// and the session log. APs added with RegisterAP are static. The
// controller's association path snapshots AP state
// under a short critical section and runs the policy lock-free,
// re-running stale decisions via a versioned check-and-retry, so
// concurrent stations do not serialize behind one beam search. Health
// counters (registrations, renewals, lease expiries, accept retries,
// selection retries, rejected traffic) are exported through
// internal/obs under the protocol.* prefix.
//
// The lifecycle and overload tests inject seeded faults (drops, torn
// frames, delays, stalls, mid-stream closes, transient accept errors)
// through the internal/faults test harness; TestChaosSoakRace is the
// churn soak.
//
// Command s3proto wraps this package into a runnable controller, a demo
// (controller, agents and a scripted station workload in one process)
// and a client that loads a running controller (-drive).
package protocol
