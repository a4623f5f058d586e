package apps

import (
	"math"
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
)

func TestRealmString(t *testing.T) {
	tests := []struct {
		r    Realm
		want string
	}{
		{RealmIM, "IM"}, {RealmP2P, "P2P"}, {RealmMusic, "music"},
		{RealmEmail, "email"}, {RealmVideo, "video"}, {RealmWeb, "web"},
		{RealmUnknown, "unknown"}, {Realm(99), "Realm(99)"},
	}
	for _, tt := range tests {
		if got := tt.r.String(); got != tt.want {
			t.Errorf("Realm(%d).String() = %q, want %q", tt.r, got, tt.want)
		}
	}
}

func TestRealmIndexRoundTrip(t *testing.T) {
	for i, r := range Realms() {
		if r.Index() != i {
			t.Errorf("%v.Index() = %d, want %d", r, r.Index(), i)
		}
	}
	// Outside the modeled six there is no index (RealmFromIndex, the
	// inverse, had no caller: Realms()[i] is it).
	for _, r := range []Realm{RealmUnknown, 0, RealmWeb + 2} {
		if r.Index() != -1 {
			t.Errorf("%v.Index() = %d, want -1", r, r.Index())
		}
	}
}

func TestClassifyWellKnownPorts(t *testing.T) {
	c := NewClassifier()
	tests := []struct {
		name string
		f    trace.Flow
		want Realm
	}{
		{"https", trace.Flow{Proto: "tcp", SrcPort: 52000, DstPort: 443}, RealmWeb},
		{"http reversed", trace.Flow{Proto: "tcp", SrcPort: 80, DstPort: 52000}, RealmWeb},
		{"dns", trace.Flow{Proto: "udp", SrcPort: 40000, DstPort: 53}, RealmWeb},
		{"smtp", trace.Flow{Proto: "tcp", SrcPort: 52000, DstPort: 25}, RealmEmail},
		{"imaps", trace.Flow{Proto: "TCP", SrcPort: 52000, DstPort: 993}, RealmEmail},
		{"bittorrent", trace.Flow{Proto: "tcp", SrcPort: 52000, DstPort: 6881}, RealmP2P},
		{"msn", trace.Flow{Proto: "tcp", SrcPort: 52000, DstPort: 1863}, RealmIM},
		{"qq udp", trace.Flow{Proto: "udp", SrcPort: 40000, DstPort: 8000}, RealmIM},
		{"rtmp", trace.Flow{Proto: "tcp", SrcPort: 52000, DstPort: 1935}, RealmVideo},
		{"rtsp", trace.Flow{Proto: "tcp", SrcPort: 52000, DstPort: 554}, RealmMusic},
		{"ephemeral p2p", trace.Flow{Proto: "tcp", SrcPort: 50000, DstPort: 51000}, RealmP2P},
		{"unknown low ports", trace.Flow{Proto: "tcp", SrcPort: 1234, DstPort: 2345}, RealmUnknown},
		{"unknown proto", trace.Flow{Proto: "icmp", SrcPort: 0, DstPort: 0}, RealmUnknown},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := c.Classify(tt.f); got != tt.want {
				t.Errorf("Classify(%+v) = %v, want %v", tt.f, got, tt.want)
			}
		})
	}
}

// TestClassifierOptions checks the built-in ephemeral-P2P rule, the one
// rule beyond the port table (the classifier takes no options): a flow
// is P2P when both its ports are at or above the ephemeral floor, on
// TCP or UDP, and only then.
func TestClassifierOptions(t *testing.T) {
	c := NewClassifier()
	for _, tt := range []struct {
		f    trace.Flow
		want Realm
	}{
		{trace.Flow{Proto: "tcp", SrcPort: ephemeralPortFloor, DstPort: ephemeralPortFloor}, RealmP2P},
		{trace.Flow{Proto: "udp", SrcPort: 60000, DstPort: 50000}, RealmP2P},
		{trace.Flow{Proto: "tcp", SrcPort: ephemeralPortFloor - 1, DstPort: 50000}, RealmUnknown},
		{trace.Flow{Proto: "udp", SrcPort: 50000, DstPort: ephemeralPortFloor - 1}, RealmUnknown},
		{trace.Flow{Proto: "icmp", SrcPort: 50000, DstPort: 51000}, RealmUnknown},
	} {
		if got := c.Classify(tt.f); got != tt.want {
			t.Errorf("Classify(%+v) = %v, want %v", tt.f, got, tt.want)
		}
	}
}

// TestVolumeByRealm: BuildProfiles adds a user's flows of one day into
// one vector per realm, the unknown volume apart (the trace-wide
// VolumeByRealm had no caller).
func TestVolumeByRealm(t *testing.T) {
	flows := []trace.Flow{
		{User: "u", Proto: "tcp", DstPort: 443, Bytes: 100},
		{User: "u", Proto: "tcp", DstPort: 80, Bytes: 50},
		{User: "u", Proto: "tcp", DstPort: 6881, Bytes: 200},
		{User: "u", Proto: "tcp", DstPort: 1234, SrcPort: 4321, Bytes: 30}, // unknown
	}
	ps := BuildProfiles(flows, 0, NewClassifier())
	vec, _ := ps.Day("u", 0)
	if len(vec) != NumRealms || vec[RealmWeb.Index()] != 150 {
		t.Fatalf("day vector = %v, want web volume 150", vec)
	}
	if vec[RealmP2P.Index()] != 200 {
		t.Errorf("p2p volume = %v, want 200", vec[RealmP2P.Index()])
	}
	if ps.UnknownVolume() != 30 {
		t.Errorf("unknown volume = %v, want 30", ps.UnknownVolume())
	}
}

func buildTestProfiles(t *testing.T) *ProfileStore {
	t.Helper()
	const epoch = int64(0)
	day := int64(86400)
	flows := []trace.Flow{
		// Day 0: u1 is web-heavy.
		{User: "u1", Start: 100, End: 200, Proto: "tcp", DstPort: 443, Bytes: 800},
		{User: "u1", Start: 300, End: 400, Proto: "tcp", DstPort: 25, Bytes: 200},
		// Day 1: u1 same mix.
		{User: "u1", Start: day + 100, End: day + 200, Proto: "tcp", DstPort: 80, Bytes: 400},
		{User: "u1", Start: day + 300, End: day + 400, Proto: "tcp", DstPort: 110, Bytes: 100},
		// Day 0: u2 is P2P-heavy.
		{User: "u2", Start: 50, End: 60, Proto: "tcp", DstPort: 6881, Bytes: 1000},
		// Unknown traffic ignored in profiles.
		{User: "u2", Start: 70, End: 80, Proto: "tcp", SrcPort: 1111, DstPort: 2222, Bytes: 5},
	}
	return BuildProfiles(flows, epoch, NewClassifier())
}

func TestBuildProfiles(t *testing.T) {
	ps := buildTestProfiles(t)
	users := ps.Users()
	if len(users) != 2 || users[0] != "u1" || users[1] != "u2" {
		t.Fatalf("Users = %v", users)
	}
	if ps.UnknownVolume() != 5 {
		t.Errorf("UnknownVolume = %v, want 5", ps.UnknownVolume())
	}
	days := ps.Days("u1")
	if len(days) != 2 || days[0] != 0 || days[1] != 1 {
		t.Errorf("Days(u1) = %v", days)
	}
	vec, ok := ps.Day("u1", 0)
	if !ok {
		t.Fatal("Day(u1, 0) missing")
	}
	if vec[RealmWeb.Index()] != 800 || vec[RealmEmail.Index()] != 200 {
		t.Errorf("day-0 vector = %v", vec)
	}
	if _, ok := ps.Day("u1", 5); ok {
		t.Error("day 5 should be absent")
	}
	if _, ok := ps.Day("ghost", 0); ok {
		t.Error("unknown user should be absent")
	}
}

func TestCumulative(t *testing.T) {
	ps := buildTestProfiles(t)
	vec, ok := ps.Cumulative("u1", 0, 1)
	if !ok {
		t.Fatal("cumulative missing")
	}
	if vec[RealmWeb.Index()] != 1200 || vec[RealmEmail.Index()] != 300 {
		t.Errorf("cumulative = %v", vec)
	}
	if _, ok := ps.Cumulative("u1", 5, 9); ok {
		t.Error("empty range should report false")
	}
}

func TestMeanNormalized(t *testing.T) {
	ps := buildTestProfiles(t)
	vec, ok := ps.MeanNormalized("u1")
	if !ok {
		t.Fatal("MeanNormalized missing")
	}
	var sum float64
	for _, x := range vec {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("profile sums to %v, want 1", sum)
	}
	// u1 is 80% web both days.
	if math.Abs(vec[RealmWeb.Index()]-0.8) > 1e-9 {
		t.Errorf("web share = %v, want 0.8", vec[RealmWeb.Index()])
	}
	if _, ok := ps.MeanNormalized("ghost"); ok {
		t.Error("unknown user should report false")
	}
}

func TestNMIPointAndCumulative(t *testing.T) {
	ps := buildTestProfiles(t)
	// u1 has identical normalized mixes on day 0 and day 1 ⇒ NMI = 1.
	nmi, ok := ps.NMIPoint("u1", 1, 1)
	if !ok {
		t.Fatal("NMIPoint missing")
	}
	if math.Abs(nmi-1) > 1e-9 {
		t.Errorf("NMIPoint = %v, want 1", nmi)
	}
	nmi, ok = ps.NMICumulative("u1", 1, 1)
	if !ok {
		t.Fatal("NMICumulative missing")
	}
	if math.Abs(nmi-1) > 1e-9 {
		t.Errorf("NMICumulative = %v, want 1", nmi)
	}
	// Missing history day.
	if _, ok := ps.NMIPoint("u1", 1, 7); ok {
		t.Error("missing history should report false")
	}
	if _, ok := ps.NMICumulative("u2", 3, 2); ok {
		t.Error("missing current day should report false")
	}
}

func TestProfileStoreEpoch(t *testing.T) {
	ps := BuildProfiles(nil, 12345, NewClassifier())
	if ps.Epoch() != 12345 {
		t.Errorf("Epoch = %d, want 12345", ps.Epoch())
	}
}

// TestRealmReport: the trace-level realm view — volume per realm in
// canonical order across users and days, the unattributed volume beside
// it — read off a ProfileStore (the ranked RealmReport had no caller).
func TestRealmReport(t *testing.T) {
	flows := []trace.Flow{
		{User: "u", Proto: "tcp", DstPort: 443, Bytes: 600},                  // web
		{User: "v", Start: 86400, Proto: "tcp", DstPort: 6881, Bytes: 300},   // p2p
		{User: "u", Start: 86400, Proto: "tcp", DstPort: 25, Bytes: 100},     // email
		{User: "v", Proto: "tcp", SrcPort: 1234, DstPort: 2345, Bytes: 1000}, // unknown
	}
	ps := BuildProfiles(flows, 0, NewClassifier())
	var got, want [NumRealms]float64
	for _, u := range ps.Users() {
		for _, day := range ps.Days(u) {
			vec, _ := ps.Day(u, day)
			for i, x := range vec {
				got[i] += x
			}
		}
	}
	want[RealmWeb.Index()], want[RealmP2P.Index()], want[RealmEmail.Index()] = 600, 300, 100
	if got != want || ps.UnknownVolume() != 1000 {
		t.Errorf("realm volumes %v, unknown %v; want %v, 1000", got, ps.UnknownVolume(), want)
	}
	// Empty input: nothing attributed, nothing unknown.
	if empty := BuildProfiles(nil, 0, NewClassifier()); len(empty.Users()) != 0 || empty.UnknownVolume() != 0 {
		t.Errorf("empty: %d users, unknown %v", len(empty.Users()), empty.UnknownVolume())
	}
}

// UnknownVolume returns the total volume left unclassified.
func (ps *ProfileStore) UnknownVolume() float64 { return ps.unknown }
