// Package obs is the repository's lightweight observability layer:
// process-wide counters, gauges and duration histograms with
// atomic updates, a named registry, a deterministic JSON export, a
// Prometheus text-format exposition (served as /metrics next to the
// pprof handlers), and the flattened column view the flight recorder
// (internal/obs/flight) samples from. It is pure standard library and
// allocation-free on the hot path, so the selector beam search, the
// event engine and the synthetic generator can stay instrumented
// unconditionally.
//
// Metrics are created once (usually in package-level vars at the
// instrumentation site), carry a short help string that becomes the
// Prometheus # HELP text and the docs/OBSERVABILITY.md catalog entry,
// and are updated with atomic operations:
//
//	var selects = obs.GetCounter("core.select.calls",
//		"Selector.Select invocations (one per arriving user or group)")
//
//	func (s *Selector) Select(...) { selects.Inc(); ... }
//
// Names are dot-separated lowercase (subsystem.metric); the Prometheus
// exposition sanitizes dots to underscores. Snapshot, WriteJSON and
// WritePrometheus read a consistent-enough view for reporting (each
// metric is read atomically; the set of metrics only grows).
// Registry.Reset zeroes every registered metric, which tests use for
// isolation.
//
// The full metric surface is cataloged in docs/OBSERVABILITY.md; a
// doc-drift test at the repository root keeps that catalog exact.
package obs
