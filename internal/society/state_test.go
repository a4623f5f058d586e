package society

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// driveLearner pushes a deterministic event mix through a learner:
// overlapping presences, co-leavings, repeat visits — enough to populate
// open sessions, recent-leave windows and both tally maps.
func driveLearner(l *OnlineLearner, events int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	aps := []trace.APID{"ap-0", "ap-1", "ap-2"}
	on := make(map[trace.UserID]trace.APID)
	ts := int64(1000)
	for i := 0; i < events; i++ {
		ts += int64(rng.Intn(30))
		u := trace.UserID(fmt.Sprintf("u-%02d", rng.Intn(12)))
		if ap, ok := on[u]; ok && rng.Float64() < 0.5 {
			l.Disconnect(u, ap, ts)
			delete(on, u)
			continue
		}
		ap := aps[rng.Intn(len(aps))]
		if prev, ok := on[u]; ok {
			l.Disconnect(u, prev, ts)
		}
		l.Connect(u, ap, ts)
		on[u] = ap
	}
}

// TestLearnerStateRoundtrip: a restored learner must be behaviorally
// identical — same model now, and same model after both copies see the
// same future events (open presences and leave windows must survive).
func TestLearnerStateRoundtrip(t *testing.T) {
	cfg := DefaultConfig()
	orig := NewOnlineLearner(cfg)
	driveLearner(orig, 300, 1)

	var buf bytes.Buffer
	if err := orig.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadLearnerState(bytes.NewReader(buf.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(orig.Model().PairProb, restored.Model().PairProb) {
		t.Fatal("restored model diverged from original")
	}
	oo, op, oc := orig.Stats()
	ro, rp, rc := restored.Stats()
	if oo != ro || op != rp || oc != rc {
		t.Fatalf("stats diverged: orig (%d,%d,%d) restored (%d,%d,%d)", oo, op, oc, ro, rp, rc)
	}
	om, rm := orig.Model(), restored.Model()
	if !reflect.DeepEqual(om.Encounters, rm.Encounters) || !reflect.DeepEqual(om.CoLeaves, rm.CoLeaves) {
		t.Fatal("raw tallies diverged")
	}

	// Same future → same model: the mid-presence state round-tripped.
	driveLearner(orig, 200, 2)
	driveLearner(restored, 200, 2)
	if !reflect.DeepEqual(orig.Model().PairProb, restored.Model().PairProb) {
		t.Fatal("models diverged after identical post-restore events")
	}
}

func TestLearnerStateRoundtripWithTypes(t *testing.T) {
	cfg := DefaultConfig()
	orig := NewOnlineLearner(cfg)
	types := map[trace.UserID]int{"u-00": 0, "u-01": 1}
	matrix := [][]float64{{0.9, 0.1}, {0.1, 0.8}}
	orig.SetTypes(types, matrix)
	driveLearner(orig, 100, 3)

	var buf bytes.Buffer
	if err := orig.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadLearnerState(bytes.NewReader(buf.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	om, rm := orig.Model(), restored.Model()
	if !reflect.DeepEqual(om.Types, rm.Types) || !reflect.DeepEqual(om.TypeMatrix, rm.TypeMatrix) {
		t.Fatal("type assignment did not round-trip")
	}
}

// TestReadLearnerStateVersion1 pins the read-both window: the previous
// release's JSON state restores the same learner the binary round trip
// does.
func TestReadLearnerStateVersion1(t *testing.T) {
	v1 := `{"version":1,"open":{"ap-0":{"u-1":{"starts":[100],"since":100}}},` +
		`"recent_ends":{"ap-0":[{"user":"u-2","at":90}]},` +
		`"encounters":{"u-1|u-2":3,"u-2|u-3":1},"co_leaves":{"u-1|u-2":2,"u-1|u-3":1},` +
		`"types":{"u-1":0,"u-2":1},"type_matrix":[[0.9,0.1],[0.1,0.8]]}` + "\n"
	cfg := DefaultConfig()
	fromV1, err := ReadLearnerState(bytes.NewReader([]byte(v1)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fromV1.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[0] != StateBinary {
		t.Fatalf("WriteState starts with %#x, want the binary marker", buf.Bytes()[0])
	}
	fromV2, err := ReadLearnerState(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := &Model{
		PairProb:   map[Pair]float64{MakePair("u-1", "u-2"): 2.0 / 3}, // u-2—u-3 lacks support
		Encounters: map[Pair]int{MakePair("u-1", "u-2"): 3, MakePair("u-2", "u-3"): 1},
		CoLeaves:   map[Pair]int{MakePair("u-1", "u-2"): 2, MakePair("u-1", "u-3"): 1},
		Types:      map[trace.UserID]int{"u-1": 0, "u-2": 1},
		TypeMatrix: [][]float64{{0.9, 0.1}, {0.1, 0.8}},
		Alpha:      cfg.Alpha,
	}
	for tag, l := range map[string]*OnlineLearner{"version 1": fromV1, "version 2": fromV2} {
		if got := l.Model(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: model = %+v, want %+v", tag, got, want)
		}
		if open, _, _ := l.Stats(); open != 1 {
			t.Errorf("%s: %d open sessions, want 1", tag, open)
		}
		// The restored leave window still counts: u-1 leaving at 100 is
		// within the co-leave window of u-2's leaving at 90.
		if err := l.Disconnect("u-1", "ap-0", 100); err != nil {
			t.Fatal(err)
		}
		if _, col := l.PairCounts(MakePair("u-1", "u-2")); col != 3 {
			t.Errorf("%s: co-leaves after restore = %d, want 3", tag, col)
		}
	}
}

func TestReadLearnerStateRejectsDamage(t *testing.T) {
	var good bytes.Buffer
	l := NewOnlineLearner(DefaultConfig())
	driveLearner(l, 100, 4)
	if err := l.WriteState(&good); err != nil {
		t.Fatal(err)
	}
	table := string(AppendUserTable(nil, []trace.UserID{"a", "b"}))
	header := "\x02\x0d" + `{"version":2}`
	for name, in := range map[string]string{
		"empty":              "",
		"not a state":        "not json",
		"v1 bad version":     `{"version":42}`,
		"v1 bad pair key":    `{"version":1,"encounters":{"bogus":3}}`,
		"v2 bad version":     "\x02\x0d" + `{"version":1}`,
		"v2 truncated":       good.String()[:good.Len()/2],
		"v2 header too long": "\x02\xff\xff\xff\xff\x7f",
		"v2 forged count":    header + "\xff\xff\xff\xff\xff\xff\xff\x7f",
		"v2 index range":     header + table + "\x01\x00\x02\x01\x01",
		"v2 equal indices":   header + table + "\x01\x01\x01\x01\x01",
		"v2 missing rows":    header + table + "\x02\x00\x01\x01\x01",
	} {
		if _, err := ReadLearnerState(bytes.NewReader([]byte(in)), DefaultConfig()); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}
