package runner

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"github.com/s3wlan/s3wlan/internal/obs"
)

var (
	obsTasks    = obs.GetCounter("runner.tasks", "Worker-pool tasks completed (sweep cells, figure jobs, replications)")
	obsTaskTime = obs.GetHistogram("runner.task", "Wall time of one worker-pool task")
)

// Config shapes one pool invocation.
type Config struct {
	// Workers bounds concurrent tasks; <= 0 means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives one line per completed task
	// (typically os.Stderr behind a -progress flag).
	Progress io.Writer
	// Label names the work: task i is "Label[i]" in progress lines and
	// errors.
	Label string
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs f over every item on the pool and returns the results in
// item order. Slot storage keeps the output identical to a serial map
// regardless of worker count. After the first failure no new item
// starts (in-flight ones finish); the returned error is the
// lowest-indexed item's, matching what a serial run would report. A
// panicking f is reported as that item's error. f must not write to
// state shared with other items.
func Map[I, O any](cfg Config, items []I, f func(I) (O, error)) ([]O, error) {
	out := make([]O, len(items))
	var (
		mu       sync.Mutex
		next     int
		done     int
		failed   = -1
		firstErr error
		start    = time.Now()
	)
	// claim hands out the next item index, or -1 when dispatch should
	// stop (exhausted, or an item already failed).
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(items) || failed >= 0 {
			return -1
		}
		next++
		return next - 1
	}
	finish := func(i int, d time.Duration, err error) {
		obsTasks.Inc()
		obsTaskTime.Observe(d)
		mu.Lock()
		defer mu.Unlock()
		done++
		if err != nil && (failed < 0 || i < failed) {
			failed, firstErr = i, err
		}
		if cfg.Progress != nil {
			label := cfg.Label
			if label == "" {
				label = "runner"
			}
			fmt.Fprintf(cfg.Progress, "[%s] %d/%d done (%s[%d], %v) elapsed=%v\n",
				label, done, len(items), cfg.Label, i, d.Round(time.Millisecond),
				time.Since(start).Round(time.Millisecond))
		}
	}

	var wg sync.WaitGroup
	for range min(cfg.workers(), len(items)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := claim(); i >= 0; i = claim() {
				t0 := time.Now()
				v, err := call(f, items[i])
				if err == nil {
					out[i] = v
				}
				finish(i, time.Since(t0), err)
			}
		}()
	}
	wg.Wait()

	if failed >= 0 {
		return nil, fmt.Errorf("runner: task %d (%s[%d]): %w", failed, cfg.Label, failed, firstErr)
	}
	return out, nil
}

// call converts a panicking f into an error so one bad cell cannot take
// down a whole grid.
func call[I, O any](f func(I) (O, error), item I) (v O, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f(item)
}
