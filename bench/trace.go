package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/protocol"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// span is one timed interval at a layer boundary. The benchmark records
// spans around its own calls into public functions of the program; the
// program itself is not instrumented.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for a root
	Op     int32  `json:"op"`     // id of the request the span belongs to
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: begin and end cost one nil check.
//
// One request is in flight at a time, so "the innermost open span" is a
// well-defined parent even though the client side of a request and the
// server side run on different goroutines. end removes by index, so the
// journal's background flusher finishing out of order cannot corrupt
// the stack.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int32
	op    int32
	// reserved is the size in bytes of the span buffer newTracer made.
	reserved uintptr
	// stopped ends recording: the journal's background flusher outlives
	// the timed phase, and the spans must hold still to be read.
	stopped bool
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity), op: -1,
		reserved: uintptr(capacity) * unsafe.Sizeof(span{})}
}

// setOp names the request subsequent spans belong to.
func (t *tracer) setOp(op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = int32(op)
	t.mu.Unlock()
}

func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op, End: -1})
	t.open = append(t.open, i)
	t.spans[i].Start = int64(time.Since(t.t0))
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		return
	}
	t.spans[i].End = now
	for k := len(t.open) - 1; k >= 0; k-- {
		if t.open[k] == i {
			t.open = append(t.open[:k], t.open[k+1:]...)
			break
		}
	}
	t.mu.Unlock()
}

// stop ends recording; spans may be read freely afterwards.
func (t *tracer) stop() {
	t.mu.Lock()
	t.stopped = true
	t.mu.Unlock()
}

// writeJSON dumps every span (the -spans file).
func (t *tracer) writeJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover (overlapping children are counted
// once; a child is clipped to its parent). Unfinished spans get 0.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if hi < lo {
				continue
			}
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// Span names. A name's prefix up to the first dot is the layer (the
// internal/ package) the time is charged to.
const (
	spanAssoc      = "driver.assoc"  // MsgAssoc sent → MsgAssign received
	spanDial       = "driver.dial"   // TCP connect + hello exchange
	spanDepart     = "driver.depart" // MsgDisassoc sent → departure applied
	spanTick       = "federation.tick"
	spanConnect    = "society.connect"
	spanDisconnect = "society.disconnect"
	spanWrite      = "journal.write"
	spanFsync      = "journal.fsync"
)

// tracedSelector records a span around every policy decision.
type tracedSelector struct {
	wlan.Selector
	name string
	tr   *tracer
}

func (s *tracedSelector) Select(req wlan.Request, aps []wlan.APView) (trace.APID, error) {
	i := s.tr.begin(s.name)
	ap, err := s.Selector.Select(req, aps)
	s.tr.end(i)
	return ap, err
}

// tracedBatchSelector keeps wlan.BatchSelector visible through the
// wrapper, so the controller's type assertion takes the same branch in
// a traced run.
type tracedBatchSelector struct {
	tracedSelector
	batch wlan.BatchSelector
}

func (s *tracedBatchSelector) SelectBatch(reqs []wlan.Request, aps []wlan.APView) (map[trace.UserID]trace.APID, error) {
	i := s.tr.begin(s.name + "_batch")
	m, err := s.batch.SelectBatch(reqs, aps)
	s.tr.end(i)
	return m, err
}

// traceSelector wraps sel when tracing; the span is named after the
// selector's layer ("core.select", "baseline.select").
func traceSelector(sel wlan.Selector, layer string, tr *tracer) wlan.Selector {
	if tr == nil {
		return sel
	}
	ts := tracedSelector{Selector: sel, name: layer + ".select", tr: tr}
	if bs, ok := sel.(wlan.BatchSelector); ok {
		return &tracedBatchSelector{tracedSelector: ts, batch: bs}
	}
	return &ts
}

// barrierObserver is the pass-through association observer every live
// workload installs, traced or not: it forwards to the real observer
// (nil for the LLF workloads) and signals each departure on departed,
// which is how the driver knows a fire-and-forget MsgDisassoc has been
// applied before it issues the next operation.
type barrierObserver struct {
	inner    protocol.AssociationObserver
	departed *barrier // nil: forward only (a follower's standby)
	tr       *tracer
}

// barrier counts applied departures. A re-association that moves a user
// also disconnects them, so the driver waits for a count, not an event.
type barrier struct {
	n    atomic.Int64
	wake chan struct{}
}

func newBarrier() *barrier { return &barrier{wake: make(chan struct{}, 1)} }

func (b *barrier) signal() {
	b.n.Add(1)
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// wait blocks until the count reaches want.
func (b *barrier) wait(want int64, timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for b.n.Load() < want {
		select {
		case <-b.wake:
		case <-deadline.C:
			return errors.New("departure not applied")
		}
	}
	return nil
}

func (o *barrierObserver) Connect(u trace.UserID, ap trace.APID, ts int64) {
	if o.inner == nil {
		return
	}
	i := o.tr.begin(spanConnect)
	o.inner.Connect(u, ap, ts)
	o.tr.end(i)
}

func (o *barrierObserver) Disconnect(u trace.UserID, ap trace.APID, ts int64) error {
	var err error
	if o.inner != nil {
		i := o.tr.begin(spanDisconnect)
		err = o.inner.Disconnect(u, ap, ts)
		o.tr.end(i)
	}
	if o.departed != nil {
		o.departed.signal()
	}
	return err
}

// statefulBarrierObserver keeps protocol.ObserverState visible through
// the wrapper, so checkpoints still carry the engine's learned state.
type statefulBarrierObserver struct {
	barrierObserver
	state protocol.ObserverState
}

func (o *statefulBarrierObserver) WriteState(w io.Writer) error { return o.state.WriteState(w) }
func (o *statefulBarrierObserver) ReadState(r io.Reader) error  { return o.state.ReadState(r) }

func newBarrierObserver(inner protocol.AssociationObserver, departed *barrier, tr *tracer) protocol.AssociationObserver {
	b := barrierObserver{inner: inner, departed: departed, tr: tr}
	if st, ok := inner.(protocol.ObserverState); ok {
		return &statefulBarrierObserver{barrierObserver: b, state: st}
	}
	return &b
}

// tracedFile records the journal's segment writes and fsyncs.
type tracedFile struct {
	journal.File
	tr *tracer
}

func (f *tracedFile) Write(p []byte) (int, error) {
	i := f.tr.begin(spanWrite)
	n, err := f.File.Write(p)
	f.tr.end(i)
	return n, err
}

func (f *tracedFile) Sync() error {
	i := f.tr.begin(spanFsync)
	err := f.File.Sync()
	f.tr.end(i)
	return err
}

// shippedCheckpointEvery is s3proto's default -checkpoint-every.
const shippedCheckpointEvery = 1024

// journalOptions is the journal policy the live workloads run under:
// fsync=interval (fsync=always measures the sandbox's disk, 220–270 µs
// per fsync here) and the given checkpoint cadence, which is counted in
// records and so lands at the same operation in every run. The traced
// run adds the file wrapper.
func journalOptions(tr *tracer, checkpointEvery int) journal.Options {
	opts := journal.Options{Fsync: journal.FsyncInterval, CheckpointEvery: checkpointEvery}
	if tr != nil {
		opts.OpenFile = func(path string) (journal.File, error) {
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			return &tracedFile{File: f, tr: tr}, nil
		}
	}
	return opts
}
