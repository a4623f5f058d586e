// Package faults is the fault-injection test harness. It makes
// connections, listeners and journal segment files misbehave the way a
// churning deployment does — peers that vanish, stall and reconnect,
// disks that tear, flip bits and fail fsyncs — while staying
// reproducible: every probabilistic decision comes from a seeded
// generator, so a failing schedule replays from its seed.
//
// Each wrapper reads its schedule through one source, a func() returning
// its config, consulted once per operation. A static schedule is Const(cfg);
// a scripted one is an Engine's Config, which resolves a []Phase literal
// against a clock so open connections move between phases without being
// re-wrapped. Only tests import this package.
package faults

import (
	"errors"
	"sync"
	"time"
)

// ErrInjected marks a failure manufactured by a wrapper, as opposed to
// one surfaced by the real transport or file.
var ErrInjected = errors.New("faults: injected error")

// Const returns a source that always yields cfg: a static schedule.
func Const[T any](cfg T) func() T { return func() T { return cfg } }

// Phase is one stage of a scripted connection schedule: Conn applies
// for Dur. The last phase of a schedule applies forever, whatever its Dur.
type Phase struct {
	Dur  time.Duration
	Conn ConnConfig
}

// Engine resolves a schedule of phases against a clock. Safe for
// concurrent use.
type Engine struct {
	phases []Phase
	now    func() time.Time // test hook; default time.Now

	mu    sync.Mutex
	start time.Time
}

// NewEngine builds an engine for phases, which must hold at least one
// phase. The clock starts at Start, or at the first phase resolution.
func NewEngine(phases []Phase) *Engine {
	return &Engine{phases: phases, now: time.Now}
}

// Start pins the schedule's t0. Later calls do nothing.
func (e *Engine) Start() { e.Elapsed() }

// Elapsed reports the time since Start, starting the clock if needed.
func (e *Engine) Elapsed() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.start.IsZero() {
		e.start = e.now()
	}
	return e.now().Sub(e.start)
}

// PhaseIndex resolves the index of the active phase.
func (e *Engine) PhaseIndex() int {
	d := e.Elapsed()
	last := len(e.phases) - 1
	for i, ph := range e.phases[:last] {
		if d < ph.Dur {
			return i
		}
		d -= ph.Dur
	}
	return last
}

// Config is the active phase's connection schedule: the source of every
// connection that follows the engine.
func (e *Engine) Config() ConnConfig { return e.phases[e.PhaseIndex()].Conn }
