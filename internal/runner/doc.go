// Package runner executes independent units of experiment work — per-seed
// replications, parameter-sweep cells, per-figure artifact jobs — on a
// bounded worker pool (Map) while keeping the output *byte-identical* to
// a serial run. Determinism rests on two rules:
//
//  1. Results are slot-stored: item i writes only into slot i, so result
//     order never depends on completion order.
//  2. Errors are index-ordered: the reported error is the one from the
//     lowest-indexed failing item, which is exactly the error a serial
//     run would have surfaced first.
//
// A cell's randomness comes from its own inputs (a campus seed, a
// clustering seed), never from a generator shared between cells.
//
// The pool also feeds the observability layer (internal/obs): per-task
// durations land in the "runner.task" histogram, completions in
// "runner.tasks", and an optional Progress writer receives one line per
// completed task for long grids. Both metrics appear on /metrics and in
// flight-recorder rings; see docs/OBSERVABILITY.md.
package runner
