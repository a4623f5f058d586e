package main

import (
	"fmt"
	"sort"
	"strings"

	"github.com/s3wlan/s3wlan/internal/protocol"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// perLayer are the single-layer metrics of the traced run; a name is
// <module>.<metric>. Every workload reports all of them, 0 where the
// layer does no work (README.md says which end-to-end metric each one
// should move, on which workload).
var perLayer = []metricDef{
	{name: "driver.assoc_p50_us", unit: "us", better: "lower", what: "median caller-visible time of one decision, MsgAssoc sent to MsgAssign received"},
	{name: "driver.assoc_p90_us", unit: "us", better: "lower", what: "90th percentile of the same"},
	{name: "driver.assoc_p99_us", unit: "us", better: "lower", what: "99th percentile decision time (tail; too few samples beyond it to gate on)"},
	{name: "driver.assoc_p999_us", unit: "us", better: "lower", what: "99.9th percentile decision time"},
	{name: "driver.assoc_max_us", unit: "us", better: "lower", what: "slowest decision"},
	{name: "driver.dial_hello_us", unit: "us", better: "lower", what: "median TCP connect + hello exchange"},
	{name: "driver.depart_us", unit: "us", better: "lower", what: "median MsgDisassoc sent to departure applied (barrier wait)"},
	{name: "driver.trace_overhead_pct", unit: "%", better: "lower", what: "traced pass's timed phase over the untraced pass's, same process and schedule, after a discarded warm-up pass"},
	{name: "driver.assign_hash", unit: "count", better: "higher", what: "low 48 bits of a hash over every assignment, in order: the determinism witness"},
	{name: "host.calib_ms", unit: "ms", better: "lower", what: "fixed single-thread SHA-256 loop, mean of before and after: the host-noise witness"},

	{name: "society.ingest_us", unit: "us", better: "lower", what: "observer self time per event, refresh excluded"},
	{name: "society.refresh_ms", unit: "ms", better: "lower", what: "total time in incremental refreshes"},
	{name: "society.refreshes", unit: "count", better: "lower", what: "snapshots published"},
	{name: "society.refresh_share_pct", unit: "%", better: "lower", what: "refresh time over the timed phase"},
	{name: "society.cliques_resolved", unit: "count", better: "lower", what: "cliques re-extracted from dirty components"},
	{name: "society.components_dirty", unit: "count", better: "lower", what: "components re-solved"},
	{name: "society.history_ingest_s", unit: "s", better: "lower", what: "set-up: history learned and handed to the serving engine"},
	{name: "society.train_ms", unit: "ms", better: "lower", what: "society.Train, set-up and timed phase together"},
	{name: "socialgraph.cover_ms", unit: "ms", better: "lower", what: "probe: ExtractCliqueCover on the mid-run snapshot's graph"},

	{name: "core.select_us", unit: "us", better: "lower", what: "median S3 Select span"},
	{name: "core.select_calls", unit: "count", better: "lower", what: "S3 Select calls"},
	{name: "core.batch_place_ms", unit: "ms", better: "lower", what: "total time placing cliques (Algorithm 1)"},
	{name: "baseline.select_us", unit: "us", better: "lower", what: "median LLF Select span"},

	{name: "domain.views_us", unit: "us", better: "lower", what: "probe: ViewsInto on a domain populated like the workload at mid-run"},
	{name: "domain.commit_us", unit: "us", better: "lower", what: "probe: Commit of one move on the same domain"},
	{name: "domain.views_alloc_b", unit: "B", better: "lower", what: "probe: bytes allocated per warmed-up ViewsInto"},

	{name: "protocol.codec_us_per_msg", unit: "us", better: "lower", what: "probe: binary codec encode + decode of one message over an in-memory conn"},
	{name: "protocol.codec_alloc_b_per_msg", unit: "B", better: "lower", what: "probe: bytes allocated by the same"},
	{name: "protocol.wire_us", unit: "us", better: "lower", what: "median round trip minus select, observer, views, commit and journal append"},
	{name: "protocol.select_retries", unit: "count", better: "lower", what: "decisions recomputed after a stale snapshot; 0 with one client"},

	{name: "journal.append_us", unit: "us", better: "lower", what: "probe: Append of one association record"},
	{name: "journal.append_b_per_rec", unit: "B", better: "lower", what: "framed bytes per record appended in the timed phase"},
	{name: "journal.append_alloc_b", unit: "B", better: "lower", what: "probe: bytes allocated per Append"},
	{name: "journal.fsync_us", unit: "us", better: "lower", what: "mean background fsync"},
	{name: "journal.fsyncs", unit: "count", better: "lower", what: "fsyncs in the timed phase (wall-clock driven)"},
	{name: "journal.recover_ms", unit: "ms", better: "lower", what: "set-up: controller built by recovering the resident journal"},
	{name: "journal.recover_alloc_mb", unit: "MiB", better: "lower", what: "bytes allocated by that recovery"},

	{name: "federation.relay_hop_us", unit: "us", better: "lower", what: "median relayed decision minus the same sent straight to the owner"},
	{name: "federation.relays", unit: "count", better: "lower", what: "connections relayed"},
	{name: "federation.relay_errors", unit: "count", better: "lower", what: "relayed connections that failed; must be 0"},
	{name: "federation.follow_records", unit: "count", better: "higher", what: "records followers applied"},
	{name: "federation.follow_lag_ms", unit: "ms", better: "lower", what: "median age of a record when its followers apply it (estimate from the tick spans)"},
	{name: "federation.lease_renewals", unit: "count", better: "lower", what: "owner lease renewals"},

	{name: "experiments.fig10_s", unit: "s", better: "lower", what: "Fig 10 sweep"},
	{name: "experiments.fig11_s", unit: "s", better: "lower", what: "Fig 11 sweep"},
	{name: "experiments.fig12_s", unit: "s", better: "lower", what: "Fig 12 comparison"},
	{name: "experiments.baselines_s", unit: "s", better: "lower", what: "baseline panel"},
	{name: "wlan.simulate_ms", unit: "ms", better: "lower", what: "total time in wlan.Simulate"},
	{name: "wlan.sessions", unit: "count", better: "higher", what: "sessions the simulator placed"},
	{name: "eventsim.events", unit: "count", better: "lower", what: "discrete events executed"},
	{name: "synth.generate_ms", unit: "ms", better: "lower", what: "set-up: campus generation"},
	{name: "apps.profiles_ms", unit: "ms", better: "lower", what: "probe: application profiles of one campus's training flows"},

	{name: "runtime.gc_cycles", unit: "count", better: "lower", what: "GC cycles in the timed phase"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower", what: "stop-the-world pause total"},
	{name: "runtime.allocs_per_assoc", unit: "count", better: "lower", what: "heap objects allocated per decision"},
	{name: "runtime.live_heap_mb", unit: "MiB", better: "lower", what: "untraced pass: heap in use after a forced GC at the end of the timed phase, before teardown"},
}

// exactMetrics are the traced-run counts that are a pure function of
// the seed: they repeat to the digit or the run was not deterministic.
var exactMetrics = []string{
	"driver.assign_hash", "core.select_calls", "journal.append_b_per_rec",
	"protocol.select_retries", "society.refreshes", "federation.follow_records",
}

// layerOf is a span name's layer: the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// spanStats is the per-name view of a traced run.
type spanStats struct {
	spans []span
	self  []int64
	// byName lists span indexes per name.
	byName map[string][]int
}

func newSpanStats(tr *tracer) *spanStats {
	st := &spanStats{spans: tr.spans, self: selfTimes(tr.spans), byName: make(map[string][]int)}
	for i, s := range st.spans {
		st.byName[s.Name] = append(st.byName[s.Name], i)
	}
	return st
}

// selfP50 is the median self time of the spans called name, in µs.
func (st *spanStats) selfP50(name string) float64 {
	idx := st.byName[name]
	xs := make([]int64, len(idx))
	for k, i := range idx {
		xs[k] = st.self[i]
	}
	return percentile(xs, 50) / 1e3
}

// selfTotal is the summed self time of a layer's spans, in ns.
func (st *spanStats) selfTotal(layer string) int64 {
	var total int64
	for name, idx := range st.byName {
		if layerOf(name) != layer {
			continue
		}
		for _, i := range idx {
			total += st.self[i]
		}
	}
	return total
}

// layerMetrics fills the report of a traced run: the metrics every
// workload shares, then the world's own, then the breakdown notes.
func layerMetrics(rep *report, wd world, ph, base *phase, tr *tracer) error {
	st := newSpanStats(tr)
	m := ph.m
	n := float64(ph.m.decisions)
	if n == 0 {
		n = 1
	}
	rep.set("driver.assoc_p50_us", percentile(m.assoc, 50)/1e3)
	rep.set("driver.assoc_p90_us", percentile(m.assoc, 90)/1e3)
	rep.set("driver.assoc_p99_us", percentile(m.assoc, 99)/1e3)
	rep.set("driver.assoc_p999_us", percentile(m.assoc, 99.9)/1e3)
	rep.set("driver.assoc_max_us", percentile(m.assoc, 100)/1e3)
	rep.set("driver.dial_hello_us", percentile(m.dial, 50)/1e3)
	rep.set("driver.depart_us", percentile(m.depart, 50)/1e3)
	rep.set("driver.trace_overhead_pct", 100*(ph.wall.Seconds()-base.wall.Seconds())/base.wall.Seconds())
	rep.set("driver.assign_hash", float64(m.hash&(1<<48-1)))
	if m.hash != base.m.hash {
		return fmt.Errorf("traced and untraced runs of one seed made different assignments (hash %x vs %x)", m.hash, base.m.hash)
	}

	events := ph.counter("society.inc.events")
	refreshMS := ph.histMS("society.inc.refresh")
	if events > 0 {
		rep.set("society.ingest_us", (float64(st.selfTotal("society"))/1e3-refreshMS*1e3)/events)
	}
	rep.set("society.refresh_ms", refreshMS)
	rep.set("society.refreshes", ph.counter("society.inc.refreshes"))
	rep.set("society.refresh_share_pct", 100*refreshMS/1e3/ph.wall.Seconds())
	rep.set("society.cliques_resolved", ph.counter("society.inc.cliques_resolved"))
	rep.set("society.components_dirty", ph.counter("society.inc.components_dirty"))
	rep.set("society.train_ms", ph.histMS("society.train"))

	rep.set("core.select_us", st.selfP50("core.select"))
	rep.set("core.select_calls", ph.counter("core.select.calls"))
	rep.set("core.batch_place_ms", ph.histMS("core.batch.place"))
	rep.set("baseline.select_us", st.selfP50("baseline.select"))
	rep.set("protocol.select_retries", ph.counter("protocol.select.retries"))

	if appends := ph.counter("journal.appends"); appends > 0 {
		rep.set("journal.append_b_per_rec", ph.counter("journal.append_bytes")/appends)
	}
	if c := ph.histCount("journal.fsync"); c > 0 {
		rep.set("journal.fsync_us", 1e3*ph.histMS("journal.fsync")/c)
	}
	rep.set("journal.fsyncs", ph.counter("journal.fsyncs"))

	rep.set("federation.relays", ph.counter("federation.relays"))
	rep.set("federation.relay_errors", ph.counter("federation.relay_errors"))
	rep.set("federation.follow_records", ph.counter("journal.follow.records"))
	rep.set("federation.lease_renewals", ph.counter("federation.lease_renewals"))

	rep.set("wlan.simulate_ms", ph.histMS("wlan.simulate"))
	rep.set("wlan.sessions", ph.counter("wlan.sessions"))
	rep.set("eventsim.events", ph.counter("eventsim.events"))

	rep.set("runtime.gc_cycles", float64(ph.gcCycles))
	rep.set("runtime.gc_pause_ms", float64(ph.gcPause)/1e6)
	rep.set("runtime.allocs_per_assoc", float64(ph.mallocs)/n)
	// From the untraced pass (the traced one also holds what its spans
	// point to), less the span buffer allocated before both.
	rep.set("runtime.live_heap_mb", (float64(base.liveHeap)-float64(tr.reserved))/(1<<20))

	return wd.layers(rep, ph, st)
}

// liveInfo is what a live world hands the shared layer code.
type liveInfo struct {
	drv *driver
	// mid is the controller's state half-way through the schedule, which
	// the domain probe reproduces.
	mid map[trace.APID]protocol.APStatus
	// probeDir is an empty directory for the journal probe.
	probeDir string
	// hopUS is relay3's relay_hop_us (0 elsewhere).
	hopUS float64
}

// liveLayers runs the stand-alone probes on a live world's state and
// prints the self-time breakdown of the median association and each
// layer's share of the timed phase.
func liveLayers(rep *report, ph *phase, st *spanStats, info liveInfo) error {
	viewsUS, commitUS, viewsAlloc, err := probeDomain(info.drv, info.mid)
	if err != nil {
		return err
	}
	rep.set("domain.views_us", viewsUS)
	rep.set("domain.commit_us", commitUS)
	rep.set("domain.views_alloc_b", viewsAlloc)
	codecUS, codecAlloc, err := probeCodec()
	if err != nil {
		return err
	}
	rep.set("protocol.codec_us_per_msg", codecUS)
	rep.set("protocol.codec_alloc_b_per_msg", codecAlloc)
	appendUS, appendAlloc, err := probeJournalAppend(info.probeDir)
	if err != nil {
		return err
	}
	rep.set("journal.append_us", appendUS)
	rep.set("journal.append_alloc_b", appendAlloc)
	rep.set("federation.relay_hop_us", info.hopUS)

	// The median association, layer by layer. Select and observer are
	// spans inside the round trip; views, commit and append are probe
	// times (the program has no spans of its own yet); the rest of the
	// round trip — codec, sockets, scheduling, the relay hop — is the
	// wire residual.
	p50 := percentile(ph.m.assoc, 50) / 1e3
	selectUS := st.selfP50("core.select") + st.selfP50("baseline.select")
	observerUS := st.selfP50(spanConnect)
	wire := p50 - selectUS - observerUS - viewsUS - commitUS - appendUS
	rep.set("protocol.wire_us", wire)
	rep.note("median association %.1f us = views %.1f + select %.1f + commit %.1f + journal append %.1f + observer %.1f + wire residual %.1f",
		p50, viewsUS, selectUS, commitUS, appendUS, observerUS, wire)
	if wire < 0 {
		// Probe times come from after the timed phase; when the host slows
		// down in between they can exceed what was inside the round trip.
		rep.note("warning: the breakdown exceeds the median association (wire residual %.1f us); a probe ran on a slower host than the timed phase", wire)
	}

	// Each layer's share of the timed phase's wall time. Spans give
	// society, the selectors and the lease/follow rounds directly; domain
	// and journal are probe time × calls; the relay hop is charged to
	// federation; protocol is what is left.
	wall := float64(ph.wall)
	share := map[string]float64{
		"society":    float64(st.selfTotal("society")),
		"core":       float64(st.selfTotal("core") + st.selfTotal("baseline")),
		"domain":     (viewsUS + commitUS) * 1e3 * float64(ph.m.decisions),
		"journal":    appendUS * 1e3 * ph.counter("journal.appends"),
		"federation": float64(st.selfTotal("federation")) + info.hopUS*1e3*float64(len(ph.m.assoc)+len(ph.m.depart)),
	}
	rest := wall
	for _, v := range share {
		rest -= v
	}
	share["protocol"] = rest
	names := make([]string, 0, len(share))
	for k := range share {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return share[names[i]] > share[names[j]] })
	var parts []string
	for _, k := range names {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", k, 100*share[k]/wall))
	}
	rep.note("layer share of the timed phase: %s", strings.Join(parts, ", "))
	return nil
}
