package eventsim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestScheduleAndRunOrder(t *testing.T) {
	e := New(0)
	var fired []int
	if err := e.ScheduleAt(30, func(*Engine) { fired = append(fired, 30) }); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleAt(10, func(*Engine) { fired = append(fired, 10) }); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleAt(20, func(*Engine) { fired = append(fired, 20) }); err != nil {
		t.Fatal(err)
	}
	end := e.Run()
	if end != 30 {
		t.Errorf("end time = %d, want 30", end)
	}
	want := []int{10, 20, 30}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
	if len(fired) != 3 || e.Pending() != 0 {
		t.Errorf("%d events fired, %d pending, want 3 and 0", len(fired), e.Pending())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := New(0)
	var fired []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		if err := e.ScheduleAt(5, func(*Engine) { fired = append(fired, name) }); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	if fired[0] != "a" || fired[1] != "b" || fired[2] != "c" {
		t.Errorf("simultaneous events out of order: %v", fired)
	}
}

func TestScheduleErrors(t *testing.T) {
	e := New(100)
	if err := e.ScheduleAt(50, func(*Engine) {}); err == nil {
		t.Error("past event should error")
	}
	if err := e.ScheduleAfter(-1, func(*Engine) {}); err == nil {
		t.Error("negative delay should error")
	}
	if err := e.ScheduleAt(200, nil); err == nil {
		t.Error("nil handler should error")
	}
}

func TestHandlersCanScheduleFollowUps(t *testing.T) {
	e := New(0)
	count := 0
	var tick Handler
	tick = func(en *Engine) {
		count++
		if count < 5 {
			if err := en.ScheduleAfter(10, tick); err != nil {
				t.Error(err)
			}
		}
	}
	if err := e.ScheduleAt(0, tick); err != nil {
		t.Fatal(err)
	}
	end := e.Run()
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if end != 40 {
		t.Errorf("end = %d, want 40", end)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	e := New(0)
	var fired []int64
	for _, at := range []int64{10, 20, 30, 40} {
		at := at
		if err := e.ScheduleAt(at, func(*Engine) { fired = append(fired, at) }); err != nil {
			t.Fatal(err)
		}
	}
	end := e.RunUntil(25)
	if end != 20 {
		t.Errorf("end = %d, want 20", end)
	}
	if len(fired) != 2 {
		t.Errorf("fired = %v, want 2 events", fired)
	}
	if e.Pending() != 2 {
		t.Errorf("pending = %d, want 2", e.Pending())
	}
	// Resume to completion.
	e.Run()
	if len(fired) != 4 {
		t.Errorf("after resume fired = %v", fired)
	}
}

func TestStop(t *testing.T) {
	e := New(0)
	var fired int
	for i := int64(1); i <= 10; i++ {
		if err := e.ScheduleAt(i, func(en *Engine) {
			fired++
			if fired == 3 {
				en.Stop()
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	if fired != 3 {
		t.Errorf("fired = %d, want 3 after Stop", fired)
	}
	// Run resumes after a stop.
	e.Run()
	if fired != 10 {
		t.Errorf("fired = %d, want 10 after resume", fired)
	}
}

func TestNowAdvancesDuringHandlers(t *testing.T) {
	e := New(5)
	if e.Now() != 5 {
		t.Errorf("Now = %d, want 5", e.Now())
	}
	var seen int64
	if err := e.ScheduleAt(42, func(en *Engine) { seen = en.Now() }); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if seen != 42 {
		t.Errorf("handler saw Now = %d, want 42", seen)
	}
}

func TestScheduleEvery(t *testing.T) {
	e := New(0)
	ticks := 0
	if err := e.ScheduleEvery(10, func(*Engine) { ticks++ }); err != nil {
		t.Fatal(err)
	}
	// Real workload until t=35: ticks at 0, 10, 20, 30, and one final
	// re-armed tick at 40 that finds the queue empty and stops.
	for _, at := range []int64{5, 15, 35} {
		if err := e.ScheduleAt(at, func(*Engine) {}); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	if ticks < 4 || ticks > 5 {
		t.Errorf("ticks = %d, want 4-5 (self-terminating chain)", ticks)
	}
	if e.Pending() != 0 {
		t.Errorf("pending = %d, want 0", e.Pending())
	}
	// A chain near the end of time stops where the next tick would not
	// be representable, leaving the work behind it to fire.
	end := New(math.MaxInt64 - 15)
	ticks = 0
	if err := end.ScheduleEvery(10, func(*Engine) { ticks++ }); err != nil {
		t.Fatal(err)
	}
	if err := end.ScheduleAt(math.MaxInt64, func(*Engine) {}); err != nil {
		t.Fatal(err)
	}
	if end.Run(); ticks != 2 || end.Now() != math.MaxInt64 {
		t.Errorf("near the end of time: %d ticks, clock at %d; want 2, %d", ticks, end.Now(), int64(math.MaxInt64))
	}
	// Validation.
	if err := e.ScheduleEvery(0, func(*Engine) {}); err == nil {
		t.Error("zero interval should error")
	}
	if err := e.ScheduleEvery(5, nil); err == nil {
		t.Error("nil handler should error")
	}
}

// TestHeapOrderMatchesSeq: over 10⁴ random schedules whose handlers
// schedule follow-ups re-entrantly (many at the current instant), the
// fired order is what a stable sort by time of the scheduling-order
// list yields — earliest time first, ties in the order scheduled. A third
// of the trials schedule their roots in time order, as a replay schedules
// its arrivals, so the queue's in-order run holds them; a third start a
// ScheduleEvery chain, up front or from a handler, whose ticks re-arm
// while other work is pending.
func TestHeapOrderMatchesSeq(t *testing.T) {
	type spec struct {
		delay    int64 // after the parent fires (after the start, for a root)
		children []int
		every    int64 // > 0: after its children, start a chain of this interval
	}
	const tick = -1 // the chain's id in the fired order
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10000; trial++ {
		// A forest of events: roots are scheduled up front, children
		// when their parent fires. Few distinct times, so ties abound.
		specs := make([]spec, 1+rng.Intn(40))
		var roots []int
		for id := range specs {
			specs[id].delay = int64(rng.Intn(4))
			if id == 0 || rng.Intn(3) == 0 {
				roots = append(roots, id)
			} else {
				parent := rng.Intn(id)
				specs[parent].children = append(specs[parent].children, id)
			}
		}
		chainAt, every := -1, int64(0) // the chain starts before roots[chainAt]
		switch trial % 3 {
		case 1:
			slices.SortStableFunc(roots, func(a, b int) int { return int(specs[a].delay - specs[b].delay) })
		case 2:
			every = 1 + rng.Int63n(3)
			if rng.Intn(2) == 0 {
				chainAt = rng.Intn(len(roots) + 1)
			} else {
				specs[rng.Intn(len(specs))].every = every
			}
		}

		e := New(0)
		var fired []int
		var handler func(id int) Handler
		handler = func(id int) Handler {
			return func(en *Engine) {
				fired = append(fired, id)
				for _, c := range specs[id].children {
					if err := en.ScheduleAfter(specs[c].delay, handler(c)); err != nil {
						t.Fatal(err)
					}
				}
				if specs[id].every > 0 {
					if err := en.ScheduleEvery(specs[id].every, func(*Engine) { fired = append(fired, tick) }); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for i := 0; i <= len(roots); i++ {
			if i == chainAt {
				if err := e.ScheduleEvery(every, func(*Engine) { fired = append(fired, tick) }); err != nil {
					t.Fatal(err)
				}
			}
			if i < len(roots) {
				if err := e.ScheduleAt(specs[roots[i]].delay, handler(roots[i])); err != nil {
					t.Fatal(err)
				}
			}
		}
		e.Run()

		// Reference: the pending list stays in scheduling order; the
		// next to fire is the first entry holding the smallest time. A
		// tick re-arms when anything else is still pending.
		type pending struct {
			at int64
			id int
		}
		var queue []pending
		for i := 0; i <= len(roots); i++ {
			if i == chainAt {
				queue = append(queue, pending{0, tick})
			}
			if i < len(roots) {
				queue = append(queue, pending{specs[roots[i]].delay, roots[i]})
			}
		}
		var want []int
		ticks := 0
		for len(queue) > 0 {
			first := 0
			for i, p := range queue {
				if p.at < queue[first].at {
					first = i
				}
			}
			p := queue[first]
			queue = append(queue[:first], queue[first+1:]...)
			want = append(want, p.id)
			if p.id == tick {
				ticks++
				if len(queue) > 0 {
					queue = append(queue, pending{p.at + every, tick})
				}
				continue
			}
			for _, c := range specs[p.id].children {
				queue = append(queue, pending{p.at + specs[c].delay, c})
			}
			if specs[p.id].every > 0 {
				queue = append(queue, pending{p.at, tick})
			}
		}
		if !slices.Equal(fired, want) {
			t.Fatalf("trial %d: fired %v, want %v", trial, fired, want)
		}
		if e.Pending() != 0 || len(fired) != len(specs)+ticks {
			t.Fatalf("trial %d: %d pending, %d fired of %d", trial, e.Pending(), len(fired), len(specs)+ticks)
		}
	}
}

// TestGrowSizesQueueOnce: after Grow, scheduling what it made room for
// (some fired on the way, some scheduled from handlers) never moves
// either part of the queue — not even when a replay's late departures
// land on a run that its arrivals filled.
func TestGrowSizesQueueOnce(t *testing.T) {
	e := New(0)
	if err := e.ScheduleAt(5, func(*Engine) {}); err != nil {
		t.Fatal(err)
	}
	e.Grow(100, 100)
	run, heap := &e.run[:1][0], &e.heap[:1][0]
	runCap, heapCap := cap(e.run), cap(e.heap)
	if runCap < 101 || heapCap < 100 {
		t.Fatalf("Grow(100, 100) over 1 pending event: caps %d and %d", runCap, heapCap)
	}
	for i := 0; i < 50; i++ {
		if err := e.ScheduleAt(int64(i%7), func(en *Engine) {
			if err := en.ScheduleAfter(1, func(*Engine) {}); err != nil {
				t.Fatal(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	// A replay: arrivals in time order, each scheduling its departure 30 s
	// on; those after the last arrival append to the run until it fills,
	// and then the fired arrivals' slots make room.
	for i := range 100 {
		if err := e.ScheduleAt(int64(10+i), func(en *Engine) {
			if err := en.ScheduleAfter(30, func(*Engine) {}); err != nil {
				t.Fatal(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	if &e.run[:1][0] != run || cap(e.run) != runCap || &e.heap[:1][0] != heap || cap(e.heap) != heapCap {
		t.Errorf("the queue moved: caps %d, %d → %d, %d", runCap, heapCap, cap(e.run), cap(e.heap))
	}
}
