package wlan

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/s3wlan/s3wlan/internal/domain"
	"github.com/s3wlan/s3wlan/internal/metrics"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// Observability of simulation runs — with society.Train, the dominant
// stage of every experiment cell.
var (
	obsSimulate = obs.GetHistogram("wlan.simulate", "Wall time of one trace-driven simulation run")
	obsSimSess  = obs.GetCounter("wlan.sessions", "Sessions replayed by the simulator")
	// The retired event engine's name, kept because bench/layers.go reads it.
	obsEvents = obs.GetCounter("eventsim.events", "Events the simulator fired: arrival batches, departures and report ticks")
)

// AssociationObserver receives association lifecycle events from the
// simulator and, as protocol.AssociationObserver, from the live
// controller, so the incremental social-state engine (society/incremental)
// learns from a replayed trace exactly as it would from a live controller.
// In a replay, Connect fires when a session is placed (at its trace
// connect time) and Disconnect at its departure. Disconnect errors are
// ignored: with batched arrivals, event times can interleave in ways a
// strict learner rejects, and the simulation must not care.
type AssociationObserver interface {
	Connect(u trace.UserID, ap trace.APID, ts int64)
	Disconnect(u trace.UserID, ap trace.APID, ts int64) error
}

// Config configures a simulation run.
type Config struct {
	// BinSeconds is the width of the throughput accounting bins
	// (default 300 — the paper's five-minute sub-periods).
	BinSeconds int64
	// SelectorFor builds the association policy for one controller
	// domain. Required.
	SelectorFor func(c trace.ControllerID, aps []trace.AP) Selector
	// DemandFor estimates a user's bandwidth demand w(u) for a session.
	// Defaults to the session's own mean throughput (perfect estimation);
	// production policies plug the history-based estimator from
	// internal/core.
	DemandFor func(s trace.Session) float64
	// BatchWindowSeconds groups arrivals in the same controller within
	// this window into one batch decision for BatchSelectors (0 batches
	// only identical timestamps).
	BatchWindowSeconds int64
	// LoadReportIntervalSeconds models the controller's AP traffic-report
	// polling (CAPWAP-style statistics): selectors see each AP's LoadBps
	// as of the last report tick rather than live. Association state
	// (user lists, per-user believed demands) is always live — the
	// controller performs the associations itself. 0 means live load.
	LoadReportIntervalSeconds int64
	// Observer, when set, receives every placement and departure the
	// simulator performs (e.g. an incremental sociality engine learning
	// from the replay).
	Observer AssociationObserver
}

// Assignment records where the simulator placed one session.
type Assignment struct {
	// Session is the original trace session (times and volume preserved).
	Session trace.Session
	// AP is the AP chosen by the policy (may differ from Session.AP).
	AP trace.APID
}

// DomainResult holds one controller domain's outcome.
type DomainResult struct {
	Controller trace.ControllerID
	// APs is the domain's AP set in stable order (column order of Loads).
	APs []trace.APID
	// Assigned lists every placed session.
	Assigned []Assignment
	// Overloads counts assignments that violated the bandwidth
	// constraint because no feasible AP existed (policy fell back).
	Overloads int
}

// Result is a completed simulation.
type Result struct {
	Start, End int64
	BinSeconds int64
	// Domains maps controller ID to its result.
	Domains map[trace.ControllerID]*DomainResult
	// Policy is the name reported by the selectors.
	Policy string
}

// LoadSeries computes the normalized balance-index time series of one
// domain from its assignments.
func (r *Result) LoadSeries(c trace.ControllerID) (*metrics.Series, error) {
	d, ok := r.Domains[c]
	if !ok {
		return nil, fmt.Errorf("wlan: unknown controller %q", c)
	}
	one := Result{Start: r.Start, End: r.End, BinSeconds: r.BinSeconds, Domains: map[trace.ControllerID]*DomainResult{c: d}}
	s := &metrics.Series{Start: r.Start, BinSeconds: r.BinSeconds}
	if err := one.EachBin(func(_ trace.ControllerID, _ int, loads []float64) error { return s.Add(loads) }); err != nil {
		return nil, err
	}
	return s, nil
}

// eachBinChunk is how many bins EachBin fills at once, so its buffer
// follows the domains' width, not the trace's span.
const eachBinChunk = 4096

// EachBin calls fn with the per-AP loads of every bin of every domain
// (columns in the domain's APs order), domain by domain in Controllers()
// order and bin by bin in time order, and returns fn's first error. The
// loads are a view of one buffer of eachBinChunk bins, allocated once per
// call and sized to the largest domain, which every chunk of every domain
// refills: fn must not keep them. A chunk sums the same records in the
// same order as one pass over the whole window would, so every bin's
// load is the same to the bit.
func (r *Result) EachBin(fn func(c trace.ControllerID, bin int, loads []float64) error) error {
	nBins, err := trace.NumBins(r.Start, r.End, r.BinSeconds)
	if err != nil {
		return err
	}
	width := 0
	for _, d := range r.Domains {
		width = max(width, len(d.APs))
	}
	buf := make([]float64, min(nBins, eachBinChunk)*width)
	for _, c := range r.Controllers() {
		d := r.Domains[c]
		record := func(i int) (*trace.Session, trace.APID) { return &d.Assigned[i].Session, d.Assigned[i].AP }
		for first := 0; first < nBins; first += eachBinChunk {
			n, from, to := nBins-first, r.Start+int64(first)*r.BinSeconds, r.End
			if n > eachBinChunk {
				n, to = eachBinChunk, from+eachBinChunk*r.BinSeconds // below End: no overflow
			}
			loads, _ := trace.BinLoadsOf(buf, len(d.Assigned), record, d.APs, from, to, r.BinSeconds) // the window is checked above
			for bin, w := 0, len(d.APs); bin < n; bin++ {
				if err := fn(c, first+bin, loads[bin*w:(bin+1)*w]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Controllers lists the simulated controller domains in sorted order.
func (r *Result) Controllers() []trace.ControllerID {
	out := make([]trace.ControllerID, 0, len(r.Domains))
	for c := range r.Domains {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

// ctrlDomain is one controller's driver state: the selector plus the
// shared association-domain core that owns all AP registry, load
// accounting, admission, and view assembly. The simulator replays the
// trace against the same state machine the live controller serves from.
type ctrlDomain struct {
	id       trace.ControllerID
	dom      *domain.Domain
	selector Selector
	result   *DomainResult
	observer AssociationObserver
	// views is the reusable snapshot buffer of handleBatch. One is enough:
	// the batch snapshot is last read by SelectBatch or by the first
	// session's Select, before the next per-session snapshot overwrites it.
	views domain.ViewBuf
	// reqs is handleBatch's request list, reused likewise: SelectBatch
	// does not keep it.
	reqs []Request
	// arrivals counts the sessions scheduled for this controller.
	arrivals int
}

// Simulate replays the trace's sessions through the association policies.
// Session arrival order and times come from the trace; the policy decides
// placement. Sessions whose controller has no APs are skipped with an
// error, and a session that ends before it starts fails the run.
func Simulate(tr *trace.Trace, cfg Config) (*Result, error) {
	if cfg.SelectorFor == nil {
		return nil, errors.New("wlan: Config.SelectorFor is required")
	}
	if cfg.BinSeconds <= 0 {
		cfg.BinSeconds = 300
	}
	if cfg.DemandFor == nil {
		cfg.DemandFor = func(s trace.Session) float64 { return s.Throughput() }
	}
	if len(tr.Sessions) == 0 {
		return nil, errors.New("wlan: no sessions to simulate")
	}
	wallStart := time.Now()
	defer func() { obsSimulate.Observe(time.Since(wallStart)) }()
	obsSimSess.Add(int64(len(tr.Sessions)))

	start, end := tr.TimeRange()
	res := &Result{
		Start:      start,
		End:        end,
		BinSeconds: cfg.BinSeconds,
		Domains:    make(map[trace.ControllerID]*DomainResult),
	}

	mode := domain.LoadMax
	if cfg.LoadReportIntervalSeconds > 0 {
		mode = domain.LoadReported
	}
	domains := make(map[trace.ControllerID]*ctrlDomain)
	for _, c := range tr.Topology.Controllers() {
		aps := tr.Topology.APsOf(c)
		if len(aps) == 0 {
			continue
		}
		d := &ctrlDomain{
			id:       c,
			observer: cfg.Observer,
			dom:      domain.New(domain.Config{Mode: mode}),
			result:   &DomainResult{Controller: c, APs: make([]trace.APID, 0, len(aps))},
		}
		for _, ap := range aps {
			if err := d.dom.AddAP(ap.ID, ap.CapacityBps); err != nil {
				return nil, fmt.Errorf("wlan: controller %q: %v", c, err)
			}
			d.result.APs = append(d.result.APs, ap.ID)
		}
		d.selector = cfg.SelectorFor(c, aps)
		if d.selector == nil {
			return nil, fmt.Errorf("wlan: nil selector for controller %q", c)
		}
		if res.Policy == "" {
			res.Policy = d.selector.Name()
		}
		res.Domains[c] = d.result
		domains[c] = d
	}
	if len(domains) == 0 {
		return nil, errors.New("wlan: topology has no controllers with APs")
	}

	// Group arrivals batch by batch, a batch being one controller's
	// co-arrivals within the window. One pass compares sessions to find
	// each batch's end, refuses a session that ends before it starts, and
	// marks the batch's first arrival by complementing its index; the
	// replay then walks the batches with a cursor, finding each by sign.
	sessions, order := tr.Sessions, arrivalOrder(tr.Sessions)
	batches := 0
	for i, j := 0, 0; i < len(order); i, batches = j, batches+1 {
		first := &sessions[order[i]]
		d, ok := domains[first.Controller]
		if !ok {
			return nil, fmt.Errorf("wlan: session for unknown controller %q", first.Controller)
		}
		for j = i; j < len(order); j++ {
			s := &sessions[order[j]]
			if j > i && (s.Controller != first.Controller || s.ConnectAt-first.ConnectAt > cfg.BatchWindowSeconds) {
				break
			}
			if s.DisconnectAt < s.ConnectAt {
				return nil, fmt.Errorf("wlan: session of %s on %s ends (%d) before it starts (%d)",
					s.User, s.AP, s.DisconnectAt, s.ConnectAt)
			}
		}
		d.arrivals += j - i
		order[i] = ^order[i]
	}
	for _, d := range domains {
		d.result.Assigned = make([]Assignment, 0, d.arrivals) // each is placed once
	}

	// The replay merges three streams by moment: the arrival batches in
	// order, the heap of pending departures and the next report tick.
	// Seq 0 is the opening tick and 1…batches are the batches.
	p := &pending{seq: uint64(batches)}
	interval := cfg.LoadReportIntervalSeconds
	tick, ticking := moment{start, 0}, interval > 0
	var fired int64
	defer func() { obsEvents.Add(fired) }()
	for next, batch := 0, uint64(1); ; fired++ {
		var arrival moment
		if next < len(order) {
			arrival = moment{sessions[^order[next]].ConnectAt, batch}
		}
		switch {
		case next < len(order) && (len(p.deps) == 0 || arrival.before(p.deps[0].moment)) && (!ticking || arrival.before(tick)):
			order[next] = ^order[next]
			end := next + 1
			for end < len(order) && order[end] >= 0 {
				end++
			}
			if err := handleBatch(p, domains[sessions[order[next]].Controller], sessions, order[next:end], cfg); err != nil {
				return nil, err
			}
			next, batch = end, batch+1
		case len(p.deps) > 0 && (!ticking || p.deps[0].before(tick)):
			dep := p.pop()
			a := &dep.d.result.Assigned[dep.idx]
			if dep.d.observer != nil {
				_ = dep.d.observer.Disconnect(a.Session.User, a.AP, dep.at)
			}
			dep.d.dom.Leave(a.Session.User, a.AP, dep.demand)
		case next == len(order) && len(p.deps) == 0:
			return res, nil // a tick now would publish what nobody reads
		default:
			// One report tick refreshes every AP's load snapshot. No load
			// moves before the next arrival batch or departure, so the tick
			// re-arms at the first report boundary at or after it.
			for _, d := range domains {
				d.dom.PublishReports()
			}
			due := arrival.at
			if next == len(order) || len(p.deps) > 0 && p.deps[0].at < due {
				due = p.deps[0].at
			}
			var at int64
			if at, ticking = boundary(tick.at, due, interval); ticking {
				tick = p.schedule(at)
			}
		}
	}
}

// boundary returns the first report boundary tick + k·interval, k ≥ 1,
// at or after due (never before tick), and false when none fits in
// int64. The gaps are unsigned: due − tick may exceed math.MaxInt64.
func boundary(tick, due, interval int64) (int64, bool) {
	gap, room, iv := uint64(due)-uint64(tick), uint64(math.MaxInt64)-uint64(tick), uint64(interval)
	k := gap / iv
	if k == 0 || gap%iv != 0 {
		k++
	}
	if k > room/iv {
		return 0, false
	}
	return int64(uint64(tick) + k*iv), true
}

// moment orders a replay's events: by time, then by seq, which numbers
// them in the order they were scheduled — the opening report tick, every
// arrival batch, then each departure as its session is placed and each
// later tick as the one before it fires. So at one instant the batches
// fire first (after the opening tick, at the trace's start), then
// departures and ticks in the order they were scheduled. A tick fires
// only while other work remains and re-arms at the first report boundary
// at or after the next of it, if that boundary fits in int64.
type moment struct {
	at  int64
	seq uint64
}

func (m moment) before(o moment) bool {
	return m.at < o.at || m.at == o.at && m.seq < o.seq
}

// departure is a placed session's end: the session is read back from
// its domain's assignment idx when it fires.
type departure struct {
	moment
	d      *ctrlDomain
	idx    int
	demand float64
}

// pending is a replay's scheduled departures, a binary min-heap of values
// by moment, and the last seq it handed out.
type pending struct {
	seq  uint64
	deps []departure
}

// schedule returns the moment of an event scheduled now to fire at at.
func (p *pending) schedule(at int64) moment {
	p.seq++
	return moment{at, p.seq}
}

func (p *pending) push(dep departure) {
	q := append(p.deps, dep)
	p.deps = q
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q[i].before(q[parent].moment) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the earliest departure; p.deps must not be empty.
func (p *pending) pop() departure {
	q := p.deps
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	p.deps = q[:n]
	for i := 0; ; {
		child := 2*i + 1
		if child+1 < n && q[child+1].before(q[child].moment) {
			child++
		}
		if child >= n || !q[child].before(q[i].moment) {
			return top
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
}

// arrivalOrder returns the replay order of sessions as indices (2³¹ sessions
// would take 154 GB): by ConnectAt, Controller, User, then DisconnectAt.
// slices.SortFunc makes the same swaps on indices as on a sorted copy, so
// ties keep the order such a copy gives them.
func arrivalOrder(sessions []trace.Session) []int32 {
	order := make([]int32, len(sessions))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(i, j int32) int {
		a, b := &sessions[i], &sessions[j]
		if c := cmp.Compare(a.ConnectAt, b.ConnectAt); c != 0 {
			return c // nearly always: the strings are compared on ties only
		}
		return cmp.Or(cmp.Compare(a.Controller, b.Controller),
			cmp.Compare(a.User, b.User), cmp.Compare(a.DisconnectAt, b.DisconnectAt))
	})
	return order
}

// handleBatch decides and places one controller's co-arrivals, the
// sessions batch indexes: jointly
// when a BatchSelector has several, else each on arrival from a snapshot
// of its own. The first is decided from the one taken on entry (nothing
// has been committed since), so a lone arrival snapshots once.
func handleBatch(p *pending, d *ctrlDomain, sessions []trace.Session, batch []int32, cfg Config) error {
	d.dom.ViewsInto(sessions[batch[0]].User, &d.views)
	views := d.views.Views()

	var placed map[trace.UserID]trace.APID // nil: every session decided on arrival
	if bs, ok := d.selector.(BatchSelector); ok && len(batch) > 1 {
		// One request per user: a user opening several sessions inside the
		// batch window joins the joint decision once, with the first
		// session's demand. The extra sessions follow the user to the
		// batch's AP: no Select decides them, no projection saw their demand.
		d.reqs = d.reqs[:0]
		for _, k := range batch {
			s := &sessions[k]
			if slices.ContainsFunc(d.reqs, func(r Request) bool { return r.User == s.User }) {
				continue
			}
			d.reqs = append(d.reqs, Request{
				User:      s.User,
				At:        s.ConnectAt,
				DemandBps: cfg.DemandFor(*s),
			})
		}
		var err error
		if placed, err = bs.SelectBatch(d.reqs, views); err != nil {
			return fmt.Errorf("wlan: batch select on %q: %w", d.id, err)
		}
	}

	for i, k := range batch {
		s := sessions[k]
		apID, ok := placed[s.User]
		demand := cfg.DemandFor(s)
		if !ok {
			if i > 0 {
				d.dom.ViewsInto(s.User, &d.views)
			}
			var err error
			apID, err = d.selector.Select(Request{
				User: s.User, At: s.ConnectAt, DemandBps: demand,
			}, d.views.Views())
			if err != nil {
				return fmt.Errorf("wlan: select on %q: %w", d.id, err)
			}
		}
		if err := d.place(p, s, apID, demand); err != nil {
			return err
		}
	}
	return nil
}

// place associates session s with AP apID and schedules its departure.
// The commit is forced (nil version): the replay is single-threaded, so
// a snapshot can never be stale.
func (d *ctrlDomain) place(p *pending, s trace.Session, apID trace.APID, demand float64) error {
	cres, err := d.dom.Commit([]domain.Placement{
		{User: s.User, AP: apID, DemandBps: demand},
	}, nil)
	if err != nil {
		if errors.Is(err, domain.ErrUnknownAP) {
			return fmt.Errorf("wlan: selector %q chose unknown AP %q",
				d.selector.Name(), apID)
		}
		return fmt.Errorf("wlan: commit on %q: %w", d.id, err)
	}
	d.result.Overloads += cres.Overloads
	d.result.Assigned = append(d.result.Assigned, Assignment{Session: s, AP: apID})
	if d.observer != nil {
		d.observer.Connect(s.User, apID, s.ConnectAt)
	}
	p.push(departure{p.schedule(s.DisconnectAt), d, len(d.result.Assigned) - 1, demand})
	return nil
}
