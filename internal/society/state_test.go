package society_test

// The live learner's persisted state, black box (see online_test.go for
// why these tests live here): what WriteState stores, ReadState restores.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/society/incremental"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// driveLearner pushes a deterministic event mix through a learner:
// overlapping presences, co-leavings, repeat visits — enough to populate
// open sessions, recent-leave windows and both tallies.
func driveLearner(l *incremental.Engine, events int, seed int64) {
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
	cfg := society.DefaultConfig()
	orig, restored := newLearner(cfg), newLearner(cfg)
	driveLearner(orig, 300, 1)

	var buf bytes.Buffer
	if err := orig.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	if err := restored.ReadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	oprob, oenc, ocol := society.AsMaps(orig.Model())
	rprob, renc, rcol := society.AsMaps(restored.Model())
	if !reflect.DeepEqual(oprob, rprob) {
		t.Fatal("restored model diverged from original")
	}
	if !reflect.DeepEqual(oenc, renc) || !reflect.DeepEqual(ocol, rcol) {
		t.Fatal("raw tallies diverged")
	}

	// Same future → same model: the mid-presence state round-tripped.
	driveLearner(orig, 200, 2)
	driveLearner(restored, 200, 2)
	oprob, _, _ = society.AsMaps(orig.Model())
	if rprob, _, _ = society.AsMaps(restored.Model()); !reflect.DeepEqual(oprob, rprob) {
		t.Fatal("models diverged after identical post-restore events")
	}
}

func TestLearnerStateRoundtripWithTypes(t *testing.T) {
	cfg := society.DefaultConfig()
	orig, restored := newLearner(cfg), newLearner(cfg)
	types := map[trace.UserID]int{"u-00": 0, "u-01": 1}
	matrix := [][]float64{{0.9, 0.1}, {0.1, 0.8}}
	orig.SetTypes(types, matrix)
	driveLearner(orig, 100, 3)

	var buf bytes.Buffer
	if err := orig.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	if err := restored.ReadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	om, rm := orig.Model(), restored.Model()
	if !reflect.DeepEqual(om.Types, rm.Types) || !reflect.DeepEqual(om.TypeMatrix, rm.TypeMatrix) {
		t.Fatal("type assignment did not round-trip")
	}
}

func TestReadLearnerStateRejectsDamage(t *testing.T) {
	var good bytes.Buffer
	l := newLearner(society.DefaultConfig())
	driveLearner(l, 100, 4)
	if err := l.WriteState(&good); err != nil {
		t.Fatal(err)
	}
	// No seen users, then the tally half: header, user table, rows.
	header := "\x02\x00" + "\x02\x0d" + `{"version":2}`
	table := "\x02\x01a\x01b"
	for name, in := range map[string]string{
		"empty":           "",
		"not a state":     "not json",
		"retired JSON":    `{"version":1,"encounters":{"a|b":3}}`,
		"bad version":     "\x02\x00" + "\x02\x0d" + `{"version":1}`,
		"truncated":       good.String()[:good.Len()/2],
		"header too long": "\x02\x00" + "\x02\xff\xff\xff\xff\x7f",
		"forged count":    header + "\xff\xff\xff\xff\xff\xff\xff\x7f",
		"index range":     header + table + "\x01\x00\x02\x01\x01",
		"equal indices":   header + table + "\x01\x01\x01\x01\x01",
		"missing rows":    header + table + "\x02\x00\x01\x01\x01",
	} {
		if err := newLearner(society.DefaultConfig()).ReadState(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
	// The control: the same pieces with one honest row restore.
	l = newLearner(society.DefaultConfig())
	if err := l.ReadState(bytes.NewReader([]byte(header + table + "\x01\x00\x01\x03\x02"))); err != nil {
		t.Fatal(err)
	}
	if enc, col := l.Model().Counts("a", "b"); enc != 3 || col != 2 {
		t.Errorf("restored tallies = %d, %d; want 3 encounters, 2 co-leaves", enc, col)
	}
}
