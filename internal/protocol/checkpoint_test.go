package protocol

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/domain"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// stateOf is everything a checkpoint must carry, in comparable form.
type stateOf struct {
	Domain      *domain.State
	Assignments map[trace.UserID]trace.APID
	AssignedAt  map[trace.UserID]int64
	ServedByUsr map[trace.UserID]int64
	Served      map[trace.APID]int64
	Meta        map[trace.APID]apMeta
}

func controllerState(c *Controller) stateOf {
	s := stateOf{c.dom.ExportState(), c.assignments, c.assignedAt, c.servedByUsr, c.served, map[trace.APID]apMeta{}}
	for id, m := range c.meta {
		s.Meta[id] = *m
	}
	return s
}

func bareController(t testing.TB) *Controller {
	t.Helper()
	c, err := NewController(baseline.LLF{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// awkwardController holds the state a checkpoint codec is most likely to
// get wrong: a failed AP, reported loads, a user with two sessions on one
// AP, an AP with nobody on it, per-user and per-AP rows present in only
// some of the tables, zero and negative counters.
func awkwardController(t testing.TB) *Controller {
	t.Helper()
	c := bareController(t)
	for i, id := range []trace.APID{"ap-b", "ap-a", "ap-dead", "ap-idle"} {
		if err := c.dom.AddAP(id, float64(i+1)*1e6); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.dom.Commit([]domain.Placement{
		{User: "zoe", AP: "ap-a", DemandBps: 100},
		{User: "zoe", AP: "ap-a", DemandBps: 250.5},
		{User: "amy", AP: "ap-a"},
		{User: "bob", AP: "ap-b", DemandBps: 1},
		{User: "eve", AP: "ap-dead", DemandBps: 7},
	}, nil); err != nil {
		t.Fatal(err)
	}
	c.dom.SetReported("ap-a", 123456.5)
	c.dom.SetReported("ap-dead", 9)
	c.dom.SetFailed("ap-dead", true)
	c.assignments = map[trace.UserID]trace.APID{"zoe": "ap-a", "amy": "ap-a", "bob": "ap-b"}
	c.assignedAt = map[trace.UserID]int64{"zoe": 1_700_000_000, "bob": -5, "ghost": 3}
	c.servedByUsr = map[trace.UserID]int64{"zoe": 0, "stray": 1 << 40}
	c.served = map[trace.APID]int64{"ap-a": 4096, "ap-gone": 1}
	c.meta = map[trace.APID]*apMeta{
		"ap-a":    {static: true},
		"ap-b":    {lastSeen: 1_700_000_123, gen: 7},
		"ap-dead": {},
	}
	return c
}

// TestCheckpointDocumentRoundTrip: export → encode → decode → import
// gives back the state, the bytes are a pure function of it, and a
// controller with nothing in it round-trips too.
func TestCheckpointDocumentRoundTrip(t *testing.T) {
	for name, c := range map[string]*Controller{"awkward": awkwardController(t), "empty": bareController(t)} {
		payload := c.appendCheckpointLocked(nil)
		if payload[0] == '{' {
			t.Fatalf("%s: document starts with the byte that marks a JSON document", name)
		}
		for i := 0; i < 5; i++ { // map iteration order must not show
			if again := c.appendCheckpointLocked(nil); !bytes.Equal(again, payload) {
				t.Fatalf("%s: two encodings of one state differ", name)
			}
		}
		withObserver := append(append([]byte(nil), payload...), "observer state"...)
		_, rest, err := decodeCheckpoint(withObserver)
		if err != nil || string(rest) != "observer state" {
			t.Fatalf("%s: decode = %q, %v; want the observer's bytes back", name, rest, err)
		}
		back := bareController(t)
		if err := back.restoreCheckpoint(payload); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := controllerState(back), controllerState(c); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: restored state\n got %+v\nwant %+v", name, got, want)
		}
		if !bytes.Equal(back.appendCheckpointLocked(nil), payload) {
			t.Fatalf("%s: the restored controller checkpoints differently", name)
		}
	}
}

// TestCheckpointDocumentRejects: every strict prefix of a document is an
// error (no panic, no partial success), as are an unknown version, flag
// bits nobody defined, and counts forged far beyond what the remaining
// bytes could hold — refused before anything is allocated for them.
func TestCheckpointDocumentRejects(t *testing.T) {
	good := awkwardController(t).appendCheckpointLocked(nil)
	for cut := 0; cut < len(good); cut++ {
		if _, _, err := decodeCheckpoint(good[:cut]); err == nil {
			t.Fatalf("document cut at %d of %d bytes decoded", cut, len(good))
		}
	}
	if _, _, err := decodeCheckpoint(append([]byte{checkpointVersion + 1}, good[1:]...)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("unknown version: %v", err)
	}
	huge := binary.AppendUvarint(nil, 1<<40)
	forged := map[string][]byte{
		"AP count":      append([]byte{checkpointVersion, 1}, huge...),
		"session count": append(journal.AppendFloat(journal.AppendFloat(append([]byte{checkpointVersion, 1, 1}, 1, 'a'), 1), 0), append([]byte{0}, huge...)...),
		"user rows":     append([]byte{checkpointVersion, 1, 0}, huge...),
		"AP rows":       append([]byte{checkpointVersion, 1, 0, 0}, huge...),
		"user flags":    {checkpointVersion, 1, 0, 1, 1, 'u', 0x80, 0},
		"AP flags":      {checkpointVersion, 1, 0, 0, 1, 1, 'a', 0x80},
	}
	for name, payload := range forged {
		payload = append(payload, make([]byte, 64)...)
		allocs := testing.AllocsPerRun(1, func() {
			if _, _, err := decodeCheckpoint(payload); err == nil {
				t.Errorf("%s: forged document decoded", name)
			}
		})
		if allocs > 16 {
			t.Errorf("%s: %v allocations to refuse a %d-byte document", name, allocs, len(payload))
		}
	}
}

// BenchmarkCheckpointEncode measures the controller's part of a
// checkpoint — export the domain, sort the keys, encode in place — at a
// relay-sized and a dense population, into a buffer that has grown to
// size as the journal's does.
func BenchmarkCheckpointEncode(b *testing.B) {
	for _, residents := range []int{3_000, 100_000} {
		b.Run(fmt.Sprintf("residents=%d", residents), func(b *testing.B) {
			c, _ := newBenchController(b, residents)
			c.mu.Lock()
			defer c.mu.Unlock()
			buf := c.appendCheckpointLocked(nil)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = c.appendCheckpointLocked(buf[:0])
			}
		})
	}
}
