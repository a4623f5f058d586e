package trace

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"github.com/s3wlan/s3wlan/internal/atomicfile"
)

// This file provides the trace's two encodings:
//
//   - JSON-lines: one JSON document per line, self-describing, used for
//     whole-trace persistence (topology + sessions + flows). It
//     round-trips exactly, record order included.
//   - CSV: separate session and flow tables, written for external
//     analysis tooling (s3 trace's exports). Nothing here reads them back.

// jsonLine is the tagged union written to JSON-lines files.
type jsonLine struct {
	Kind     string    `json:"kind"` // "topology", "session" or "flow"
	Topology *Topology `json:"topology,omitempty"`
	Session  *Session  `json:"session,omitempty"`
	Flow     *Flow     `json:"flow,omitempty"`
}

// WriteJSONLines serializes the trace to w as JSON-lines: first the
// topology, then sessions, then flows.
func WriteJSONLines(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonLine{Kind: "topology", Topology: &tr.Topology}); err != nil {
		return fmt.Errorf("trace: encode topology: %w", err)
	}
	for i := range tr.Sessions {
		if err := enc.Encode(jsonLine{Kind: "session", Session: &tr.Sessions[i]}); err != nil {
			return fmt.Errorf("trace: encode session %d: %w", i, err)
		}
	}
	for i := range tr.Flows {
		if err := enc.Encode(jsonLine{Kind: "flow", Flow: &tr.Flows[i]}); err != nil {
			return fmt.Errorf("trace: encode flow %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONLines parses a JSON-lines trace from r (through Stream, so
// unknown kinds are rejected and corruption is caught early) and returns
// it only if it passes Validate: every trace a file brings in is checked
// here, and the error names the first bad record.
func ReadJSONLines(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	err := Stream(r, func(topo *Topology, s *Session, f *Flow) error {
		switch {
		case topo != nil:
			tr.Topology = *topo
		case s != nil:
			tr.Sessions = append(tr.Sessions, *s)
		default:
			tr.Flows = append(tr.Flows, *f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("invalid trace: %w", err)
	}
	return tr, nil
}

// SaveFile writes the trace to path in JSON-lines format. The write is
// atomic (temp file + fsync + rename): a crash mid-save leaves any
// previous file at path intact, never a truncated trace.
func SaveFile(path string, tr *Trace) error {
	if err := atomicfile.WriteFile(path, func(w io.Writer) error {
		return WriteJSONLines(w, tr)
	}); err != nil {
		return fmt.Errorf("trace: save %s: %w", path, err)
	}
	return nil
}

// LoadFile reads a JSON-lines trace from path through ReadJSONLines.
func LoadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: open %s: %w", path, err)
	}
	defer f.Close()
	return ReadJSONLines(f)
}

// WriteSessionsCSV writes the session table (with header) to w.
func WriteSessionsCSV(w io.Writer, sessions []Session) error {
	return writeCSV(w, []string{"user", "ap", "controller", "connect_at", "disconnect_at", "bytes"},
		len(sessions), func(i int) []string {
			s := &sessions[i]
			return []string{string(s.User), string(s.AP), string(s.Controller),
				strconv.FormatInt(s.ConnectAt, 10), strconv.FormatInt(s.DisconnectAt, 10), strconv.FormatInt(s.Bytes, 10)}
		})
}

// WriteFlowsCSV writes the flow table (with header) to w.
func WriteFlowsCSV(w io.Writer, flows []Flow) error {
	return writeCSV(w, []string{"user", "start", "end", "proto", "src_port", "dst_port", "bytes"},
		len(flows), func(i int) []string {
			f := &flows[i]
			return []string{string(f.User), strconv.FormatInt(f.Start, 10), strconv.FormatInt(f.End, 10),
				f.Proto, strconv.Itoa(f.SrcPort), strconv.Itoa(f.DstPort), strconv.FormatInt(f.Bytes, 10)}
		})
}

// writeCSV writes header and then row(i) for each of n rows.
func writeCSV(w io.Writer, header []string, n int, row func(i int) []string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: write CSV header: %w", err)
	}
	for i := 0; i < n; i++ {
		if err := cw.Write(row(i)); err != nil {
			return fmt.Errorf("trace: write CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
