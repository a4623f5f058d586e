package main

import (
	"errors"
	"fmt"
	"io"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// runTrace summarizes, validates, slices and exports a trace file:
//
//	s3 trace -in campus.jsonl -summary
//	s3 trace -in campus.jsonl -validate -count
//	s3 trace -in campus.jsonl -slice-start 86400 -slice-end 172800 -out day2.jsonl
//	s3 trace -in campus.jsonl -sessions-csv sessions.csv -flows-csv flows.csv
func runTrace(args []string, out io.Writer) error {
	fs := newFlagSet("trace")
	var (
		in          = fs.String("in", "", "input trace (JSON-lines)")
		summary     = fs.Bool("summary", false, "print a descriptive summary")
		validate    = fs.Bool("validate", false, "report that the trace is valid (loading validates every record)")
		count       = fs.Bool("count", false, "stream-count records (no full load)")
		epoch       = fs.Int64("epoch", 0, "trace epoch for hour-of-day stats")
		sliceStart  = fs.Int64("slice-start", -1, "slice window start (Unix seconds)")
		sliceEnd    = fs.Int64("slice-end", -1, "slice window end (Unix seconds)")
		outPath     = fs.String("out", "", "output trace for -slice")
		sessionsCSV = fs.String("sessions-csv", "", "export sessions as CSV to this path")
		flowsCSV    = fs.String("flows-csv", "", "export flows as CSV to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return errors.New("pass -in <trace.jsonl>")
	}
	didSomething := false

	// Streaming count works without loading the file.
	if *count {
		sessions, flows, err := trace.CountRecords(*in)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "sessions: %d\nflows: %d\n", sessions, flows)
		didSomething = true
	}

	needLoad := *summary || *validate || *sliceStart >= 0 ||
		*sessionsCSV != "" || *flowsCSV != ""
	if !needLoad {
		if !didSomething {
			return errors.New("nothing to do: pass -summary, -validate, -count, -slice-start/-slice-end or a CSV export")
		}
		return nil
	}

	tr, err := trace.LoadFile(*in)
	if err != nil {
		return err
	}

	if *validate {
		fmt.Fprintln(out, "trace is valid")
	}
	if *summary {
		fmt.Fprint(out, tr.Summarize(*epoch).String())
		hour, n := tr.Summarize(*epoch).PeakArrivalHour()
		fmt.Fprintf(out, "peak arrival hour: %02d:00 (%d arrivals)\n", hour, n)
	}
	if *sliceStart >= 0 || *sliceEnd >= 0 {
		if *sliceStart < 0 || *sliceEnd < 0 || *outPath == "" {
			return errors.New("slicing needs -slice-start, -slice-end and -out")
		}
		sliced := tr.Slice(*sliceStart, *sliceEnd)
		if err := trace.SaveFile(*outPath, sliced); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d sessions, %d flows)\n",
			*outPath, len(sliced.Sessions), len(sliced.Flows))
	}
	if *sessionsCSV != "" {
		if err := writeFile(*sessionsCSV, func(w io.Writer) error {
			return trace.WriteSessionsCSV(w, tr.Sessions)
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *sessionsCSV)
	}
	if *flowsCSV != "" {
		if err := writeFile(*flowsCSV, func(w io.Writer) error {
			return trace.WriteFlowsCSV(w, tr.Flows)
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *flowsCSV)
	}
	return nil
}
