package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/obs/flight"
)

// runDiag decodes a flight-recorder ring (internal/obs/flight, written by
// any -flight-dir) into per-metric time series, so the minutes before an
// incident — a kill -9 in a chaos soak, a stall in a long -drive run —
// can be reconstructed after the fact:
//
//	s3 diag -dir /var/lib/s3/flight                 # per-metric summary
//	s3 diag -dir flight -format csv > series.csv    # long-form time series
//	s3 diag -dir flight -format json                # decoded samples as JSON
//	s3 diag -dir flight -format rates -window 10s   # windowed counter rates
//	s3 diag -dir flight -match journal.             # only journal.* columns
//	s3 diag -dir flight -check                      # CI: decode + monotone counters
//	s3 diag -journal /var/lib/s3/journal            # dump a write-ahead journal
//
// Columns are the registry's flattened series: counters and gauges by
// name; a histogram x contributes x#count, x#ns, x#max and x#b<i>
// bucket columns (decade buckets from 10µs up; see docs/OBSERVABILITY.md).
// -check fails if the ring fails to decode, holds fewer than two
// samples, or any cumulative column decreases outside a full-snapshot
// boundary (a process restart).
//
// -journal reads a controller's journal directory (internal/journal)
// instead: the newest valid checkpoint's sequence number, then every
// segment in order, one JSON object per record whatever layout it was
// stored in, with '#' lines where frames were corrupt, undecodable or
// torn. The stored records are binary; this is how to read them.
func runDiag(args []string, out io.Writer) error {
	fs := newFlagSet("diag")
	var (
		dir    = fs.String("dir", "", "flight-recorder ring directory")
		format = fs.String("format", "summary", "output: summary, csv, json or rates")
		match  = fs.String("match", "", "only columns containing this substring")
		window = fs.Duration("window", 10*time.Second, "rates: bucketing window")
		check  = fs.Bool("check", false, "verify the ring: decodable, ≥2 samples, cumulative columns monotone (CI)")
		jdir   = fs.String("journal", "", "dump this write-ahead journal directory instead of a flight ring")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jdir != "" {
		return dumpJournal(*jdir, out)
	}
	if *dir == "" {
		if fs.NArg() == 1 {
			*dir = fs.Arg(0)
		} else {
			return fmt.Errorf("pass -dir <flight ring directory>")
		}
	}

	ring, err := flight.Decode(*dir)
	if err != nil {
		return err
	}
	if len(ring.Samples) == 0 {
		return fmt.Errorf("%s: no decodable flight samples", *dir)
	}
	cols := ring.Columns()
	if *match != "" {
		kept := cols[:0]
		for _, c := range cols {
			if strings.Contains(c, *match) {
				kept = append(kept, c)
			}
		}
		cols = kept
	}

	if *check {
		return runCheck(ring, out)
	}
	switch *format {
	case "summary":
		return writeSummary(ring, cols, out)
	case "csv":
		return writeRingCSV(ring, cols, out)
	case "json":
		return writeJSON(ring, cols, out)
	case "rates":
		return writeRates(ring, cols, *window, out)
	}
	return fmt.Errorf("unknown format %q (want summary, csv, json or rates)", *format)
}

// dumpJournal prints what recovery would start from and everything the
// segments hold: a '#' line per checkpoint, segment and damaged region,
// one JSON line per decodable record.
func dumpJournal(dir string, out io.Writer) error {
	rec, err := journal.Recover(dir)
	if err != nil {
		return err
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal")) // the pattern is well-formed
	if len(segs) == 0 && rec.Checkpoint == nil {
		return fmt.Errorf("%s: no journal segments or checkpoints", dir)
	}
	sort.Strings(segs) // zero-padded first-seq: lexical order is replay order
	fmt.Fprintf(out, "# checkpoint seq %d (%d bytes; seq 0: none valid); recovery replays %d records after it\n",
		rec.Stats.CheckpointSeq, len(rec.Checkpoint), rec.Stats.RecordsReplayed)
	enc := json.NewEncoder(out)
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "# %s (%d bytes)\n", filepath.Base(seg), len(data))
		end := 0
		skipped := func(to int) {
			if to > end {
				fmt.Fprintf(out, "# corrupt: bytes %d-%d skipped\n", end, to)
			}
		}
		st, err := journal.WalkFrames(data, func(off int, payload []byte) error {
			skipped(off)
			end = off + journal.FrameHeaderLen + len(payload)
			var r journal.Record
			if err := journal.DecodeRecord(payload, &r); err != nil {
				fmt.Fprintf(out, "# undecodable: frame at byte %d: %v\n", off, err)
				return nil
			}
			return enc.Encode(&r)
		})
		if err != nil {
			return err
		}
		skipped(st.Consumed)
		if tail := len(data) - st.Consumed; st.Torn {
			fmt.Fprintf(out, "# torn tail: %d bytes of an incomplete frame at byte %d\n", tail, st.Consumed)
		} else if tail > 0 {
			fmt.Fprintf(out, "# corrupt: %d bytes at byte %d hold no frame\n", tail, st.Consumed)
		}
	}
	return nil
}

// cumulative reports whether a column only moves up (counter-like), per
// the kinds recorded in the ring's full snapshots.
func cumulative(ring *flight.Ring, col string) bool { return ring.Kinds[col] == "c" }

// runCheck is the CI smoke contract: the ring decoded (we got here),
// carries at least two samples, and no cumulative column ever decreases
// except across a full-snapshot boundary (process restart).
func runCheck(ring *flight.Ring, out io.Writer) error {
	if len(ring.Samples) < 2 {
		return fmt.Errorf("check: only %d sample(s); want at least 2", len(ring.Samples))
	}
	violations := 0
	for _, col := range ring.Columns() {
		if !cumulative(ring, col) {
			continue
		}
		prev := int64(0)
		for i, s := range ring.Samples {
			v, ok := s.V[col]
			if !ok {
				continue
			}
			if v < prev && !s.Full {
				fmt.Fprintf(out, "check: %s decreased %d -> %d at sample %d (%s)\n",
					col, prev, v, i, s.T.Format(time.RFC3339))
				violations++
			}
			prev = v
		}
	}
	if violations > 0 {
		return fmt.Errorf("check: %d monotonicity violation(s)", violations)
	}
	span := ring.Samples[len(ring.Samples)-1].T.Sub(ring.Samples[0].T)
	fmt.Fprintf(out, "check ok: %d samples over %v, %d columns, %d segments (corrupt %d, torn %d)\n",
		len(ring.Samples), span.Round(time.Millisecond), len(ring.Columns()),
		ring.Stats.Segments, ring.Stats.CorruptFrames, ring.Stats.TornTails)
	return nil
}

// writeSummary prints one line per column: kind, sample count, min,
// max, last — and for cumulative columns the overall rate per second.
func writeSummary(ring *flight.Ring, cols []string, out io.Writer) error {
	first, last := ring.Samples[0], ring.Samples[len(ring.Samples)-1]
	span := last.T.Sub(first.T)
	fmt.Fprintf(out, "flight ring: %d samples, %v (%s .. %s), %d segments (corrupt %d, torn %d)\n\n",
		len(ring.Samples), span.Round(time.Millisecond),
		first.T.Format(time.RFC3339), last.T.Format(time.RFC3339),
		ring.Stats.Segments, ring.Stats.CorruptFrames, ring.Stats.TornTails)
	fmt.Fprintf(out, "%-44s %-5s %8s %12s %12s %12s %12s\n",
		"column", "kind", "samples", "min", "max", "last", "rate/s")
	for _, col := range cols {
		var n int
		var minV, maxV, lastV, firstV int64
		seen := false
		for _, s := range ring.Samples {
			v, ok := s.V[col]
			if !ok {
				continue
			}
			n++
			if !seen {
				minV, maxV, firstV, seen = v, v, v, true
			}
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
			lastV = v
		}
		if !seen {
			continue
		}
		kind := "gauge"
		rate := ""
		if cumulative(ring, col) {
			kind = "cum"
			if span > 0 {
				rate = fmt.Sprintf("%.2f", float64(lastV-firstV)/span.Seconds())
			}
		}
		fmt.Fprintf(out, "%-44s %-5s %8d %12d %12d %12d %12s\n",
			col, kind, n, minV, maxV, lastV, rate)
	}
	return nil
}

// writeRingCSV emits the long-form series: unix_ms,column,value.
func writeRingCSV(ring *flight.Ring, cols []string, out io.Writer) error {
	keep := make(map[string]bool, len(cols))
	for _, c := range cols {
		keep[c] = true
	}
	if _, err := fmt.Fprintln(out, "unix_ms,column,value"); err != nil {
		return err
	}
	for _, s := range ring.Samples {
		names := make([]string, 0, len(s.V))
		for name := range s.V {
			if keep[name] {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			if _, err := fmt.Fprintf(out, "%d,%s,%d\n", s.T.UnixMilli(), name, s.V[name]); err != nil {
				return err
			}
		}
	}
	return nil
}

// jsonSample is the -format json shape of one sample.
type jsonSample struct {
	UnixMS int64            `json:"unix_ms"`
	Full   bool             `json:"full,omitempty"`
	Values map[string]int64 `json:"values"`
}

// writeJSON emits the decoded samples (filtered to cols) as a JSON
// array.
func writeJSON(ring *flight.Ring, cols []string, out io.Writer) error {
	keep := make(map[string]bool, len(cols))
	for _, c := range cols {
		keep[c] = true
	}
	samples := make([]jsonSample, 0, len(ring.Samples))
	for _, s := range ring.Samples {
		js := jsonSample{UnixMS: s.T.UnixMilli(), Full: s.Full, Values: make(map[string]int64)}
		for name, v := range s.V {
			if keep[name] {
				js.Values[name] = v
			}
		}
		samples = append(samples, js)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(samples)
}

// writeRates buckets cumulative columns into fixed windows and emits
// window_start_ms,column,rate_per_s — the post-hoc equivalent of a
// Prometheus rate() query.
func writeRates(ring *flight.Ring, cols []string, window time.Duration, out io.Writer) error {
	if window <= 0 {
		return fmt.Errorf("rates: -window must be positive")
	}
	if _, err := fmt.Fprintln(out, "window_start_ms,column,rate_per_s"); err != nil {
		return err
	}
	start := ring.Samples[0].T
	for _, col := range cols {
		if !cumulative(ring, col) {
			continue
		}
		// Walk samples window by window; within each window the rate is
		// (last-first)/elapsed between the window's boundary samples.
		winStart := start
		var haveBase bool
		var base int64
		var lastV int64
		var lastT time.Time
		flush := func(end time.Time) error {
			if !haveBase || !lastT.After(winStart) {
				return nil
			}
			elapsed := lastT.Sub(winStart).Seconds()
			if elapsed <= 0 {
				return nil
			}
			_, err := fmt.Fprintf(out, "%d,%s,%.3f\n",
				winStart.UnixMilli(), col, float64(lastV-base)/elapsed)
			return err
		}
		for _, s := range ring.Samples {
			v, ok := s.V[col]
			if !ok {
				continue
			}
			for s.T.Sub(winStart) >= window {
				if err := flush(winStart.Add(window)); err != nil {
					return err
				}
				winStart = winStart.Add(window)
				base, haveBase = lastV, true
			}
			if !haveBase {
				base, haveBase = v, true
			}
			lastV, lastT = v, s.T
		}
		if err := flush(lastT); err != nil {
			return err
		}
	}
	return nil
}
