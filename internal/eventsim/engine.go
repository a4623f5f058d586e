// Package eventsim is a small deterministic discrete-event simulation
// engine: a time-ordered event queue with a stable tie-break (insertion
// sequence), a simulated clock, and run control. It underpins the WLAN
// simulator in internal/wlan.
package eventsim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/s3wlan/s3wlan/internal/obs"
)

// Observability of the engine across all instances in the process.
// Event counts are accumulated locally per RunUntil call and flushed
// once, so the dispatch loop pays no per-event atomic operation.
var (
	obsEvents  = obs.GetCounter("eventsim.events", "Discrete events dispatched by the engine")
	obsRunTime = obs.GetHistogram("eventsim.run", "Wall time of one RunUntil dispatch loop")
)

// Handler is the callback invoked when an event fires. The engine passes
// itself so handlers can schedule follow-up events.
type Handler func(e *Engine)

// event is a scheduled callback.
type event struct {
	at      int64
	seq     uint64
	handler Handler
}

// before orders events by (time, sequence) so simultaneous events fire
// in scheduling order — the property that makes runs reproducible.
func (ev *event) before(other *event) bool {
	if ev.at != other.at {
		return ev.at < other.at
	}
	return ev.seq < other.seq
}

// eventHeap is a binary min-heap of event values: a slice of values costs
// no allocation and no interface conversion per event.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	*h = q
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the earliest event; the heap must not be empty.
func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0], q[n] = q[n], event{} // the vacated slot lets the handler's closure go
	*h = q[:n]
	for i := 0; ; {
		child := 2*i + 1
		if child+1 < n && q[child+1].before(&q[child]) {
			child++
		}
		if child >= n || !q[child].before(&q[i]) {
			return top
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
}

// Engine is a discrete-event simulator. Create with New; the zero value is
// not usable.
//
// Its queue has two parts, each ordered by (time, sequence): a FIFO run of
// the events scheduled at or after the run's last time, which cost an
// append and an index, and a heap of the rest. A replay schedules its
// arrivals up front in time order, so only departures and report ticks
// pay for the heap; RunUntil fires the earlier of the two heads.
type Engine struct {
	now     int64
	seq     uint64
	run     []event // run[head:] is pending; empty whenever drained
	head    int
	heap    eventHeap
	stopped bool
}

// New returns an engine whose clock starts at startTime.
func New(startTime int64) *Engine {
	return &Engine{now: startTime}
}

// Now returns the current simulated time.
func (e *Engine) Now() int64 { return e.now }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.run) - e.head + len(e.heap) }

// Grow makes room for inOrder more events scheduled in time order (each at
// or after the one before) and others more scheduled out of it, in one
// allocation, so a caller that knows how many of each it will queue sizes
// the queue once instead of by doubling.
func (e *Engine) Grow(inOrder, others int) {
	runCap := len(e.run) - e.head + inOrder
	buf := make([]event, 0, runCap+len(e.heap)+others)
	e.run, e.head = append(buf[:0:runCap], e.run[e.head:]...), 0
	e.heap = append(buf[runCap:runCap], e.heap...)
}

// ErrPastEvent is returned when scheduling before the current time.
var ErrPastEvent = errors.New("eventsim: cannot schedule event in the past")

// ScheduleAt enqueues handler to fire at the absolute time at.
func (e *Engine) ScheduleAt(at int64, handler Handler) error {
	if at < e.now {
		return fmt.Errorf("%w: at=%d now=%d", ErrPastEvent, at, e.now)
	}
	if handler == nil {
		return errors.New("eventsim: nil handler")
	}
	e.seq++
	ev := event{at: at, seq: e.seq, handler: handler}
	if n := len(e.run); n > e.head && at < e.run[n-1].at {
		e.heap.push(ev)
		return nil
	}
	if len(e.run) == cap(e.run) && e.head > 0 && e.head >= len(e.run)/2 {
		// Full, and at least half of it fired slots: slide the pending
		// events down rather than regrow (at most once per len/2 appends).
		n := copy(e.run, e.run[e.head:])
		clear(e.run[n:])
		e.run, e.head = e.run[:n], 0
	}
	e.run = append(e.run, ev)
	return nil
}

// ScheduleAfter enqueues handler to fire delay seconds from now.
func (e *Engine) ScheduleAfter(delay int64, handler Handler) error {
	if delay < 0 {
		return fmt.Errorf("%w: negative delay %d", ErrPastEvent, delay)
	}
	return e.ScheduleAt(e.now+delay, handler)
}

// Stop halts the run after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run fires events until the queue is empty or Stop is called. It returns
// the final simulated time.
func (e *Engine) Run() int64 {
	return e.RunUntil(int64(^uint64(0) >> 1)) // max int64
}

// ScheduleEvery fires handler now and then every interval seconds for as
// long as other work remains queued: the periodic chain re-arms itself
// only while it is not the sole pending event, so a simulation with
// periodic ticks still terminates when the real workload drains.
func (e *Engine) ScheduleEvery(interval int64, handler Handler) error {
	if interval <= 0 {
		return fmt.Errorf("%w: non-positive interval %d", ErrPastEvent, interval)
	}
	if handler == nil {
		return errors.New("eventsim: nil handler")
	}
	var tick Handler
	tick = func(en *Engine) {
		handler(en)
		if en.Pending() > 0 && en.now <= math.MaxInt64-interval {
			// Re-arm only while other work remains and a later tick is
			// representable; scheduling relative to the current time can
			// then never be in the past.
			if err := en.ScheduleAfter(interval, tick); err != nil {
				panic(err) // unreachable: positive delay from now
			}
		}
	}
	return e.ScheduleAt(e.now, tick)
}

// RunUntil fires events with at <= horizon, advancing the clock to each
// event's time. Events beyond the horizon remain queued; the clock ends at
// min(horizon, last fired event) — it does not jump to the horizon when
// the queue drains early.
func (e *Engine) RunUntil(horizon int64) int64 {
	e.stopped = false
	start := time.Now()
	var fired int64
	for !e.stopped {
		next, ok := e.pop(horizon)
		if !ok {
			break
		}
		e.now = next.at
		fired++
		next.handler(e)
	}
	obsEvents.Add(fired)
	obsRunTime.Observe(time.Since(start))
	return e.now
}

// pop removes and returns the earliest queued event, the run's head or the
// heap's, if it is due by horizon.
func (e *Engine) pop(horizon int64) (event, bool) {
	if e.head < len(e.run) && (len(e.heap) == 0 || e.run[e.head].before(&e.heap[0])) {
		ev := e.run[e.head]
		if ev.at > horizon {
			return event{}, false
		}
		e.run[e.head] = event{} // the fired slot lets the handler's closure go
		if e.head++; e.head == len(e.run) {
			e.run, e.head = e.run[:0], 0
		}
		return ev, true
	}
	if len(e.heap) == 0 || e.heap[0].at > horizon {
		return event{}, false
	}
	return e.heap.pop(), true
}
