package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Streaming access to JSON-lines traces: multi-month enterprise traces
// can be larger than memory, so callers can visit records without
// materializing the whole Trace.

// StreamHandler receives trace records in file order. Exactly one of the
// pointers is non-nil per call. Returning a non-nil error aborts the scan
// and is returned by Stream verbatim.
type StreamHandler func(topo *Topology, s *Session, f *Flow) error

// ErrStopStream can be returned by a StreamHandler to end the scan early
// without Stream reporting an error.
var ErrStopStream = fmt.Errorf("trace: stop stream")

// Stream scans a JSON-lines trace from r, invoking handler per record.
func Stream(r io.Reader, handler StreamHandler) error {
	if handler == nil {
		return fmt.Errorf("trace: nil stream handler")
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var line jsonLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		var topo *Topology // the kind's payload alone; any other is ignored
		var s *Session
		var f *Flow
		switch line.Kind {
		case "topology":
			topo = line.Topology
		case "session":
			s = line.Session
		case "flow":
			f = line.Flow
		default:
			return fmt.Errorf("trace: line %d: unknown record kind %q", lineNo, line.Kind)
		}
		if topo == nil && s == nil && f == nil {
			return fmt.Errorf("trace: line %d: %s without payload", lineNo, line.Kind)
		}
		if err := handler(topo, s, f); err != nil {
			if err == ErrStopStream {
				return nil
			}
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("trace: scan: %w", err)
	}
	return nil
}

// CountRecords streams a trace file and tallies its records — a cheap
// integrity probe for large files.
func CountRecords(path string) (sessions, flows int, err error) {
	file, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("trace: open %s: %w", path, err)
	}
	defer file.Close()
	err = Stream(file, func(_ *Topology, s *Session, f *Flow) error {
		switch {
		case s != nil:
			sessions++
		case f != nil:
			flows++
		}
		return nil
	})
	return sessions, flows, err
}
