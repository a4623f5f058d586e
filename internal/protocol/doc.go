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
// Wire format: the journal's magic|length|CRC-32C frames, each carrying
// one or more compactly encoded Messages (codec.go has the layout). It is
// the only encoding: a peer that opens with anything but a frame is
// refused by the magic check.
//
// Lifecycle and failure model: an agent connection registers one AP,
// and a re-hello from a reconnecting (or restarted) agent supersedes the
// previous connection. An AP whose agent goes silent stays registered,
// with its believed users, until a re-hello or a restart. APs added with
// RegisterAP are static. An association decides one request under one
// hold of the controller's mutex — view snapshot, policy, commit,
// bookkeeping, journal append — so its snapshot is current by
// construction. Every mutation is a journal record applied by one
// function, whether it is made live, recovered from the journal or
// replicated to a follower. Health counters (registrations, renewals,
// accept retries, moves, rejected traffic) are exported through
// internal/obs under the protocol.* prefix.
//
// The s3 proto subcommand wraps this package into a runnable controller, a demo
// (controller, agents and a scripted station workload in one process)
// and a client that loads a running controller (-drive).
package protocol
