package trace

import (
	"errors"
	"fmt"
)

// BinLoads distributes session volumes into fixed-width time bins per AP.
// The returned matrix has one row per bin in [start, end) and one column
// per AP in apOrder; loads[i][j] is the volume (bytes) AP apOrder[j] served
// during bin i. A session's bytes are spread uniformly over its duration,
// which matches how the paper computes per-sub-period AP throughput from
// login records. Zero-duration sessions contribute their full volume to
// the bin containing their connect time.
func BinLoads(sessions []Session, apOrder []APID, start, end, binSeconds int64) ([][]float64, error) {
	return BinLoadsOf(len(sessions), func(i int) (*Session, APID) { return &sessions[i], sessions[i].AP },
		apOrder, start, end, binSeconds)
}

// BinLoadsOf is BinLoads over n records that are not a session list:
// record(i) yields the i-th session and the AP that served it, which
// counts in place of the session's own (a replay's assignments).
func BinLoadsOf(n int, record func(i int) (*Session, APID), apOrder []APID, start, end, binSeconds int64) ([][]float64, error) {
	loads, apIdx, err := newBins(apOrder, start, end, binSeconds)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		s, ap := record(i)
		j, ok := apIdx[ap]
		if !ok {
			continue // session on an AP outside the requested set
		}
		addSessionToBins(loads, j, s, start, end, binSeconds)
	}
	return loads, nil
}

// newBins returns the zeroed matrix of BinLoads — a row per bin of
// [start, end), a column per AP — and each AP's column.
func newBins(apOrder []APID, start, end, binSeconds int64) ([][]float64, map[APID]int, error) {
	if binSeconds <= 0 {
		return nil, nil, errors.New("trace: non-positive bin width")
	}
	if end < start {
		return nil, nil, fmt.Errorf("trace: end %d before start %d", end, start)
	}
	nBins := int((end - start + binSeconds - 1) / binSeconds)
	rows := make([][]float64, nBins)
	flat := make([]float64, nBins*len(apOrder))
	for i := range rows {
		rows[i], flat = flat[:len(apOrder)], flat[len(apOrder):]
	}
	apIdx := make(map[APID]int, len(apOrder))
	for j, ap := range apOrder {
		apIdx[ap] = j
	}
	return rows, apIdx, nil
}

func addSessionToBins(loads [][]float64, apCol int, s *Session, start, end, binSeconds int64) {
	// Clip the session to the observation window.
	from := max(s.ConnectAt, start)
	to := min(s.DisconnectAt, end)
	dur := s.Duration()
	if dur <= 0 {
		// Point session: all volume lands in its connect bin if visible.
		if s.ConnectAt >= start && s.ConnectAt < end {
			bin := int((s.ConnectAt - start) / binSeconds)
			loads[bin][apCol] += float64(s.Bytes)
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
		loads[bin][apCol] += rate * float64(seg)
		t += seg
	}
}

// ConcurrentUsers counts, per bin and per AP, the number of users whose
// sessions overlap the bin at all. The matrix layout matches BinLoads.
func ConcurrentUsers(sessions []Session, apOrder []APID, start, end, binSeconds int64) ([][]float64, error) {
	counts, apIdx, err := newBins(apOrder, start, end, binSeconds)
	if err != nil {
		return nil, err
	}
	for _, s := range sessions {
		j, ok := apIdx[s.AP]
		if !ok {
			continue
		}
		from := max(s.ConnectAt, start)
		to := min(s.DisconnectAt, end)
		if to < from {
			continue
		}
		firstBin := int((from - start) / binSeconds)
		lastBin := int((to - start) / binSeconds)
		if to == from {
			lastBin = firstBin // point session counts in one bin
		} else if (to-start)%binSeconds == 0 {
			lastBin-- // exclusive end exactly on a bin boundary
		}
		if lastBin >= len(counts) {
			lastBin = len(counts) - 1
		}
		for b := firstBin; b <= lastBin; b++ {
			counts[b][j]++
		}
	}
	return counts, nil
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
