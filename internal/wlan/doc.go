// Package wlan is the enterprise-WLAN simulation layer: controllers and
// APs with capacity, stations with demands, and an association lifecycle
// replayed from a trace as one merge, in time order, of three streams:
// arrival batches, departures and the controller's load-report ticks.
//
// The layer is policy-agnostic. Association decisions go through the
// Selector interface; baseline policies (LLF, least-users, strongest-RSSI,
// random, round-robin) live in internal/baseline and the S³ policy in
// internal/core. Simulate replays a trace's test range session by
// session: each connect event becomes an association request routed to
// the domain's selector, each disconnect releases the station, and
// periodic load reports age according to Config.LoadReportIntervalSeconds —
// the staleness lever the herd-effect ablation sweeps.
//
// Co-arrivals within the configured batch window are presented to the
// selector together (SelectBatch), which is what lets Algorithm 1's joint
// clique placement act on groups instead of independent stations.
//
// The output Result records every assignment per controller domain, from
// which the metrics layer derives per-bin AP loads and balance indices.
// Simulation wall time, session and event counts are exported through
// internal/obs ("wlan.simulate", "wlan.sessions", "eventsim.events").
package wlan
