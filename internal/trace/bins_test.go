package trace

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBinLoadsUniformSpread(t *testing.T) {
	// A session of 100 bytes over [0, 100) with 50-second bins: 50/50.
	sessions := []Session{
		{User: "u", AP: "a", ConnectAt: 0, DisconnectAt: 100, Bytes: 100},
	}
	loads, err := BinLoads(sessions, []APID{"a"}, 0, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(loads) != 2 {
		t.Fatalf("bins = %d, want 2", len(loads))
	}
	if loads[0][0] != 50 || loads[1][0] != 50 {
		t.Errorf("loads = %v, want [[50] [50]]", loads)
	}
}

func TestBinLoadsClipping(t *testing.T) {
	// Session extends beyond the window on both sides; only the middle
	// portion is counted.
	sessions := []Session{
		{User: "u", AP: "a", ConnectAt: -100, DisconnectAt: 300, Bytes: 400},
	}
	loads, err := BinLoads(sessions, []APID{"a"}, 0, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Rate is 1 byte/s, so the window [0, 100) captures 100 bytes.
	if loads[0][0] != 100 {
		t.Errorf("clipped load = %v, want 100", loads[0][0])
	}
}

func TestBinLoadsPointSession(t *testing.T) {
	sessions := []Session{
		{User: "u", AP: "a", ConnectAt: 30, DisconnectAt: 30, Bytes: 77},
	}
	loads, err := BinLoads(sessions, []APID{"a"}, 0, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if loads[0][0] != 77 || loads[1][0] != 0 {
		t.Errorf("point session loads = %v", loads)
	}
	// Point session outside the window contributes nothing.
	loads, err = BinLoads(sessions, []APID{"a"}, 50, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if loads[0][0] != 0 {
		t.Errorf("out-of-window point session = %v, want 0", loads[0][0])
	}
}

func TestBinLoadsUnknownAPSkipped(t *testing.T) {
	sessions := []Session{
		{User: "u", AP: "other", ConnectAt: 0, DisconnectAt: 10, Bytes: 10},
	}
	loads, err := BinLoads(sessions, []APID{"a"}, 0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if loads[0][0] != 0 {
		t.Errorf("unknown AP should be skipped, got %v", loads)
	}
}

func TestBinLoadsErrors(t *testing.T) {
	if _, err := BinLoads(nil, nil, 0, 10, 0); err == nil {
		t.Error("zero bin width should error")
	}
	if _, err := BinLoads(nil, nil, 10, 0, 5); err == nil {
		t.Error("end before start should error")
	}
}

// Property: total binned volume equals the session volume clipped to the
// window (within float tolerance), for random sessions.
func TestBinLoadsConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		const winStart, winEnd = int64(0), int64(1000)
		binW := int64(1 + rng.Intn(200))
		n := 1 + rng.Intn(20)
		sessions := make([]Session, 0, n)
		var wantTotal float64
		for i := 0; i < n; i++ {
			start := int64(rng.Intn(1200)) - 100
			dur := int64(1 + rng.Intn(400))
			bytes := int64(rng.Intn(10000))
			s := Session{User: "u", AP: "a", ConnectAt: start,
				DisconnectAt: start + dur, Bytes: bytes}
			sessions = append(sessions, s)
			// Expected contribution: clipped fraction of the volume.
			from := max(start, winStart)
			to := min(start+dur, winEnd)
			if to > from {
				wantTotal += float64(bytes) * float64(to-from) / float64(dur)
			}
		}
		loads, err := BinLoads(sessions, []APID{"a"}, winStart, winEnd, binW)
		if err != nil {
			return false
		}
		var got float64
		for _, row := range loads {
			got += row[0]
		}
		return math.Abs(got-wantTotal) < 1e-6*(1+wantTotal)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentUsers(t *testing.T) {
	sessions := []Session{
		{User: "u1", AP: "a", ConnectAt: 0, DisconnectAt: 100},
		{User: "u2", AP: "a", ConnectAt: 50, DisconnectAt: 150},
		{User: "u3", AP: "b", ConnectAt: 0, DisconnectAt: 50},
	}
	counts, err := ConcurrentUsers(sessions, []APID{"a", "b"}, 0, 200, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Bin 0 [0,50): u1 on a, u3 on b.
	if counts[0][0] != 1 || counts[0][1] != 1 {
		t.Errorf("bin 0 = %v", counts[0])
	}
	// Bin 1 [50,100): u1+u2 on a; u3 ended exactly at 50 (exclusive).
	if counts[1][0] != 2 || counts[1][1] != 0 {
		t.Errorf("bin 1 = %v", counts[1])
	}
	// Bin 2 [100,150): u2 only (u1 ended at 100 exactly).
	if counts[2][0] != 1 {
		t.Errorf("bin 2 = %v", counts[2])
	}
	// Bin 3 [150,200): empty.
	if counts[3][0] != 0 || counts[3][1] != 0 {
		t.Errorf("bin 3 = %v", counts[3])
	}

	// Window edges, by BinLoads' rule: a session that ends exactly at the
	// window's start and a zero-length one exactly at its end (250 is not
	// on a bin boundary) carry no volume and count nowhere; a zero-length
	// session inside counts in its connect bin.
	edge := []Session{
		{User: "u4", AP: "a", ConnectAt: 40, DisconnectAt: 100, Bytes: 60},
		{User: "u5", AP: "a", ConnectAt: 250, DisconnectAt: 250, Bytes: 60},
		{User: "u6", AP: "a", ConnectAt: 170, DisconnectAt: 170, Bytes: 60},
	}
	counts, err = ConcurrentUsers(edge, []APID{"a"}, 100, 250, 60)
	if err != nil {
		t.Fatal(err)
	}
	loads, err := BinLoads(edge, []APID{"a"}, 100, 250, 60)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]float64{{0}, {1}, {0}}; !reflect.DeepEqual(counts, want) {
		t.Errorf("window-edge counts = %v, want %v", counts, want)
	}
	for i := range loads {
		if (counts[i][0] > 0) != (loads[i][0] > 0) {
			t.Errorf("bin %d: %v users against %v bytes", i, counts[i][0], loads[i][0])
		}
	}
}

func TestConcurrentUsersErrors(t *testing.T) {
	if _, err := ConcurrentUsers(nil, nil, 0, 10, 0); err == nil {
		t.Error("zero bin width should error")
	}
	if _, err := ConcurrentUsers(nil, nil, 10, 0, 5); err == nil {
		t.Error("end before start should error")
	}
}

func TestResidentSessions(t *testing.T) {
	sessions := []Session{
		{User: "stay", AP: "a", ConnectAt: 0, DisconnectAt: 1000},
		{User: "late", AP: "a", ConnectAt: 150, DisconnectAt: 1000},
		{User: "early", AP: "a", ConnectAt: 0, DisconnectAt: 500},
	}
	got := ResidentSessions(sessions, 100, 900)
	if len(got) != 1 || got[0].User != "stay" {
		t.Errorf("ResidentSessions = %v", got)
	}
}
