package trace

import (
	"errors"
	"fmt"
	"slices"
)

// BinLoads distributes session volumes into fixed-width time bins per AP.
// The returned matrix has one row per bin in [start, end) and one column
// per AP in apOrder; loads[i][j] is the volume (bytes) AP apOrder[j] served
// during bin i. A session's bytes are spread uniformly over its duration,
// which matches how the paper computes per-sub-period AP throughput from
// login records. Zero-duration sessions contribute their full volume to
// the bin containing their connect time.
func BinLoads(sessions []Session, apOrder []APID, start, end, binSeconds int64) ([][]float64, error) {
	loads, err := BinLoadsOf(nil, len(sessions), func(i int) (*Session, APID) { return &sessions[i], sessions[i].AP },
		apOrder, start, end, binSeconds)
	if err != nil {
		return nil, err
	}
	nBins, _ := NumBins(start, end, binSeconds) // checked by BinLoadsOf
	return rowsOf(loads, nBins, len(apOrder)), nil
}

// BinLoadsOf is BinLoads over n records that are not a session list,
// into one flat slice: row i is loads[i*len(apOrder):(i+1)*len(apOrder)].
// record(i) yields the i-th session and the AP that served it, which
// counts in place of the session's own (a replay's assignments). The
// matrix is buf's storage when buf has the capacity, else a new slice.
func BinLoadsOf(buf []float64, n int, record func(i int) (*Session, APID), apOrder []APID, start, end, binSeconds int64) ([]float64, error) {
	loads, apIdx, err := newBins(buf, apOrder, start, end, binSeconds)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		s, ap := record(i)
		j, ok := apIdx[ap]
		if !ok {
			continue // session on an AP outside the requested set
		}
		addSessionToBins(loads[j:], len(apOrder), s, start, end, binSeconds)
	}
	return loads, nil
}

// NumBins is the number of binSeconds-wide bins that cover [start, end).
func NumBins(start, end, binSeconds int64) (int, error) {
	if binSeconds <= 0 {
		return 0, errors.New("trace: non-positive bin width")
	}
	if end < start {
		return 0, fmt.Errorf("trace: end %d before start %d", end, start)
	}
	return int((end - start + binSeconds - 1) / binSeconds), nil
}

// newBins returns the zeroed flat matrix of BinLoadsOf, in buf if it is
// large enough, and each AP's column.
func newBins(buf []float64, apOrder []APID, start, end, binSeconds int64) ([]float64, map[APID]int, error) {
	nBins, err := NumBins(start, end, binSeconds)
	if err != nil {
		return nil, nil, err
	}
	buf = slices.Grow(buf[:0], nBins*len(apOrder))[:nBins*len(apOrder)]
	clear(buf)
	apIdx := make(map[APID]int, len(apOrder))
	for j, ap := range apOrder {
		apIdx[ap] = j
	}
	return buf, apIdx, nil
}

// rowsOf splits a flat matrix into its nBins rows of width columns.
func rowsOf(flat []float64, nBins, width int) [][]float64 {
	rows := make([][]float64, nBins)
	for i := range rows {
		rows[i] = flat[i*width : (i+1)*width : (i+1)*width]
	}
	return rows
}

// addSessionToBins adds s's volume to the column that starts at col[0],
// one row every width elements.
func addSessionToBins(col []float64, width int, s *Session, start, end, binSeconds int64) {
	// Clip the session to the observation window.
	from := max(s.ConnectAt, start)
	to := min(s.DisconnectAt, end)
	dur := s.Duration()
	if dur <= 0 {
		// Point session: all volume lands in its connect bin if visible.
		if s.ConnectAt >= start && s.ConnectAt < end {
			bin := int((s.ConnectAt - start) / binSeconds)
			col[bin*width] += float64(s.Bytes)
		}
		return
	}
	if to <= from {
		return
	}
	rate := float64(s.Bytes) / float64(dur)
	bin := int((from - start) / binSeconds)
	binEnd := start + int64(bin+1)*binSeconds
	// After the first segment t sits on binEnd: the next bin begins there.
	for t := from; t < to; bin, binEnd = bin+1, binEnd+binSeconds {
		seg := min(binEnd, to) - t
		col[bin*width] += float64(rate * float64(seg))
		t += seg
	}
}

// ConcurrentUsers counts, per bin and per AP, the users BinLoads gives
// volume there: a zero-length session in the bin of its connect time when
// that lies in [start, end), any other session in every bin it overlaps
// for a positive time. The matrix layout matches BinLoads.
func ConcurrentUsers(sessions []Session, apOrder []APID, start, end, binSeconds int64) ([][]float64, error) {
	counts, apIdx, err := newBins(nil, apOrder, start, end, binSeconds)
	if err != nil {
		return nil, err
	}
	for _, s := range sessions {
		j, ok := apIdx[s.AP]
		if !ok {
			continue
		}
		from, to := max(s.ConnectAt, start), min(s.DisconnectAt, end)
		if s.Duration() <= 0 && s.ConnectAt >= start {
			to = from + 1 // a point session: its connect bin, if in the window
		}
		if to <= from || from >= end {
			continue
		}
		for b := (from - start) / binSeconds; start+b*binSeconds < to; b++ {
			counts[int(b)*len(apOrder)+j]++
		}
	}
	nBins, _ := NumBins(start, end, binSeconds) // checked by newBins
	return rowsOf(counts, nBins, len(apOrder)), nil
}

// ResidentSessions returns the sessions that span the entire window
// [start, end] — the paper's Fig. 3 removes "users who just came or left
// during a time period" to isolate application dynamics from churn.
func ResidentSessions(sessions []Session, start, end int64) []Session {
	var out []Session
	for _, s := range sessions {
		if s.ConnectAt <= start && s.DisconnectAt >= end {
			out = append(out, s)
		}
	}
	return out
}
