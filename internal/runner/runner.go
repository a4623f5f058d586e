package runner

import (
	"errors"
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
	// Label prefixes progress lines and names the work in reports.
	Label string
	// Seed is the base seed tasks derive their private RNG seeds from
	// (see Ctx.Seed). Zero is a valid base.
	Seed int64
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Ctx is the per-task execution context.
type Ctx struct {
	// Index is the task's position in the submitted slice.
	Index int
	// Seed is the task's private seed, derived from the pool seed and
	// Index (or taken from Task.Seed when set).
	Seed int64
}

// Task is one unit of work.
type Task struct {
	// Name labels the task in progress output and reports.
	Name string
	// Seed overrides the derived per-task seed when non-zero.
	Seed int64
	// Run does the work. It must not write to state shared with other
	// tasks except through its own result slot.
	Run func(*Ctx) error
}

// TaskReport records one task's outcome.
type TaskReport struct {
	Name     string        `json:"name"`
	Duration time.Duration `json:"duration_ns"`
	Err      string        `json:"err,omitempty"`
}

// Report summarizes a pool invocation.
type Report struct {
	Label   string        `json:"label,omitempty"`
	Workers int           `json:"workers"`
	Wall    time.Duration `json:"wall_ns"`
	Tasks   []TaskReport  `json:"tasks"`
}

// TotalTaskTime sums the per-task durations — the serial-equivalent
// cost; Wall/TotalTaskTime approximates the achieved speedup.
func (r *Report) TotalTaskTime() time.Duration {
	var total time.Duration
	for _, t := range r.Tasks {
		total += t.Duration
	}
	return total
}

// Render is a one-line human summary.
func (r *Report) Render() string {
	label := r.Label
	if label == "" {
		label = "runner"
	}
	total := r.TotalTaskTime()
	speedup := 1.0
	if r.Wall > 0 {
		speedup = float64(total) / float64(r.Wall)
	}
	return fmt.Sprintf("%s: %d tasks on %d workers in %v (serial-equivalent %v, speedup %.1fx)",
		label, len(r.Tasks), r.Workers, r.Wall.Round(time.Millisecond),
		total.Round(time.Millisecond), speedup)
}

// DeriveSeed maps (base, index) to a well-mixed per-task seed using the
// splitmix64 finalizer, so neighbouring indices get uncorrelated
// streams and the mapping is stable across runs and platforms.
func DeriveSeed(base int64, index int) int64 {
	z := uint64(base) + uint64(index+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// Run executes the tasks on the pool and returns the per-task report.
// After the first failure no new tasks start (in-flight tasks finish);
// the returned error is the lowest-indexed task's error, matching what
// a serial run would report. The Report covers every started task.
func Run(cfg Config, tasks []Task) (*Report, error) {
	report := &Report{
		Label:   cfg.Label,
		Workers: cfg.workers(),
		Tasks:   make([]TaskReport, len(tasks)),
	}
	for i, t := range tasks {
		report.Tasks[i].Name = t.Name
	}
	if len(tasks) == 0 {
		return report, nil
	}

	n := min(report.Workers, len(tasks))
	start := time.Now()

	var (
		mu        sync.Mutex
		next      int
		done      int
		failedIdx = -1
		firstErrs = map[int]error{}
	)
	// claim hands out the next task index, or -1 when dispatch should
	// stop (exhausted, or a lower-indexed task already failed).
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(tasks) || failedIdx >= 0 {
			return -1
		}
		i := next
		next++
		return i
	}
	finish := func(idx int, d time.Duration, err error) {
		obsTasks.Inc()
		obsTaskTime.Observe(d)
		mu.Lock()
		defer mu.Unlock()
		done++
		report.Tasks[idx].Duration = d
		if err != nil {
			report.Tasks[idx].Err = err.Error()
			firstErrs[idx] = err
			if failedIdx < 0 || idx < failedIdx {
				failedIdx = idx
			}
		}
		if cfg.Progress != nil {
			name := report.Tasks[idx].Name
			if name == "" {
				name = fmt.Sprintf("task %d", idx)
			}
			label := cfg.Label
			if label == "" {
				label = "runner"
			}
			fmt.Fprintf(cfg.Progress, "[%s] %d/%d done (%s, %v) elapsed=%v\n",
				label, done, len(tasks), name, d.Round(time.Millisecond),
				time.Since(start).Round(time.Millisecond))
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := claim()
				if idx < 0 {
					return
				}
				ctx := &Ctx{Index: idx, Seed: tasks[idx].Seed}
				if ctx.Seed == 0 {
					ctx.Seed = DeriveSeed(cfg.Seed, idx)
				}
				t0 := time.Now()
				err := safeRun(tasks[idx].Run, ctx)
				finish(idx, time.Since(t0), err)
			}
		}()
	}
	wg.Wait()
	report.Wall = time.Since(start)

	if failedIdx >= 0 {
		return report, fmt.Errorf("runner: task %d (%s): %w",
			failedIdx, report.Tasks[failedIdx].Name, firstErrs[failedIdx])
	}
	return report, nil
}

// safeRun converts a panicking task into an error so one bad cell
// cannot take down a whole grid.
func safeRun(run func(*Ctx) error, ctx *Ctx) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if run == nil {
		return errors.New("nil task")
	}
	return run(ctx)
}

// Map runs f over every item on the pool and returns the results in
// item order. Slot storage keeps the output identical to a serial map
// regardless of worker count.
func Map[I, O any](cfg Config, items []I, f func(*Ctx, I) (O, error)) ([]O, *Report, error) {
	out := make([]O, len(items))
	tasks := make([]Task, len(items))
	for i := range items {
		tasks[i] = Task{
			Name: fmt.Sprintf("%s[%d]", cfg.Label, i),
			Run: func(c *Ctx) error {
				v, err := f(c, items[i])
				if err != nil {
					return err
				}
				out[i] = v
				return nil
			},
		}
	}
	report, err := Run(cfg, tasks)
	if err != nil {
		return nil, report, err
	}
	return out, report, nil
}
