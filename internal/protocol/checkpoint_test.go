package protocol

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
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
	Domain   *domain.State
	Sessions map[trace.UserID]session
	Meta     map[trace.APID]apMeta
}

func controllerState(c *Controller) stateOf {
	s := stateOf{c.dom.ExportState(nil), c.sessions, map[trace.APID]apMeta{}}
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
// get wrong, among the states a controller reaches: reported loads, a
// static AP beside agent-backed ones, an AP with nobody on it, a session
// with no connect time, a negative timestamp, zero and 2⁴⁰ counters.
func awkwardController(t testing.TB) *Controller {
	t.Helper()
	c := bareController(t)
	for i, id := range []trace.APID{"ap-b", "ap-a", "ap-idle"} {
		if err := c.dom.AddAP(id, float64(i+1)*1e6); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.dom.Commit([]domain.Placement{
		{User: "zoe", AP: "ap-a", DemandBps: 350.5},
		{User: "amy", AP: "ap-a"},
		{User: "bob", AP: "ap-b", DemandBps: 1},
	}, nil); err != nil {
		t.Fatal(err)
	}
	c.dom.SetReported("ap-a", 123456.5)
	c.dom.SetReported("ap-idle", 9)
	c.sessions = map[trace.UserID]session{
		"zoe": {ap: "ap-a", at: 1_700_000_000},
		"amy": {ap: "ap-a"},
		"bob": {ap: "ap-b", at: -5, served: 1 << 40},
	}
	c.meta = map[trace.APID]*apMeta{
		"ap-a":    {static: true, served: 4096},
		"ap-b":    {gen: 7, served: 1<<40 + 1},
		"ap-idle": {gen: 1},
	}
	return c
}

// ckptRow is one row of a checkpoint document's user or AP table: its
// key and flags byte.
type ckptRow struct {
	key   string
	flags byte
}

// checkpointRows walks a checkpoint document (with nothing after it) and
// returns where its domain section and its user table end, and its two
// row tables.
func checkpointRows(t *testing.T, payload []byte) (ends [2]int, users, aps []ckptRow) {
	t.Helper()
	in := journal.NewReader(payload)
	in.Byte()
	in.Uvarint()
	for n := in.Uvarint(); n > 0; n-- {
		in.Str()
		in.Float()
		in.Float()
		in.Byte()
		for k := in.Uvarint(); k > 0; k-- {
			in.Str()
			in.Float()
		}
	}
	ends[0] = len(payload) - len(in.Rest())
	for n := in.Uvarint(); n > 0 && in.Err() == nil; n-- {
		r := ckptRow{in.Str(), in.Byte()}
		if r.flags&ckptAssigned != 0 {
			in.Str()
		}
		for _, f := range []byte{ckptAssignedAt, ckptServedByUsr} {
			if r.flags&f != 0 {
				in.Varint()
			}
		}
		users = append(users, r)
	}
	ends[1] = len(payload) - len(in.Rest())
	for n := in.Uvarint(); n > 0 && in.Err() == nil; n-- {
		r := ckptRow{in.Str(), in.Byte()}
		if r.flags&ckptServed != 0 {
			in.Varint()
		}
		if r.flags&ckptMeta != 0 {
			in.Varint()
			in.Uvarint()
		}
		aps = append(aps, r)
	}
	if in.Err() != nil || len(in.Rest()) != 0 {
		t.Fatalf("walking the document: %v, %d bytes left", in.Err(), len(in.Rest()))
	}
	return ends, users, aps
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
// bits nobody defined, counts forged far beyond what the remaining
// bytes could hold — refused before anything is allocated for them — and
// an AP whose capacity, load or demand the wire's gate would refuse.
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
	// apDoc is a document of one AP, "a", holding one user's demand.
	apDoc := func(capacity, load, demand float64) []byte {
		doc := journal.AppendFloat(journal.AppendFloat(append([]byte{checkpointVersion, 1, 1}, 1, 'a'), capacity), load)
		doc = journal.AppendFloat(append(doc, 0, 1, 1, 'u'), demand)
		return append(doc, 0, 1, 1, 'a', ckptServed|ckptMeta, 0, 0, 1)
	}
	if _, _, err := decodeCheckpoint(apDoc(1e6, 5e5, 2e5)); err != nil {
		t.Fatalf("a sound one-AP document: %v", err)
	}
	huge := binary.AppendUvarint(nil, 1<<40)
	forged := map[string][]byte{
		"NaN capacity":  apDoc(math.NaN(), 0, 0),
		"negative load": apDoc(1e6, -5e5, 0),
		"+Inf demand":   apDoc(1e6, 0, math.Inf(1)),
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

// TestCheckpointParentPartialRows: the release before wrote one user row
// for every user any of three per-user tables knew, and one AP row for
// every AP with served bytes or lease metadata, so a row could hold part
// of a user or an AP. Restoring such a document drops those parts —
// ghost (a connect time, no AP), stray (served bytes only) and ap-gone
// (served bytes of an expired AP) leave no session and no AP behind —
// an AP whose failed byte an older release set comes back live, and
// checkpointing again writes full rows only.
func TestCheckpointParentPartialRows(t *testing.T) {
	awkward := awkwardController(t)
	good := awkward.appendCheckpointLocked(nil)
	ends, _, _ := checkpointRows(t, good)

	doc := append([]byte(nil), good[:ends[0]]...)
	doc[bytes.Index(doc, []byte("ap-a"))+len("ap-a")+16] = 1 // after the ID, capacity and report
	row := func(key string, flags byte) { doc = append(journal.AppendString(doc, key), flags) }
	doc = binary.AppendUvarint(doc, 5)
	row("amy", ckptAssigned)
	doc = journal.AppendString(doc, "ap-a")
	row("bob", ckptSession)
	doc = binary.AppendVarint(binary.AppendVarint(journal.AppendString(doc, "ap-b"), -5), 1<<40)
	row("ghost", ckptAssignedAt)
	doc = binary.AppendVarint(doc, 3)
	row("stray", ckptServedByUsr)
	doc = binary.AppendVarint(doc, 1<<40)
	row("zoe", ckptSession)
	doc = binary.AppendVarint(binary.AppendVarint(journal.AppendString(doc, "ap-a"), 1_700_000_000), 0)
	doc = binary.AppendUvarint(doc, 4)
	row("ap-a", ckptServed|ckptMeta|ckptStatic)
	doc = binary.AppendUvarint(binary.AppendVarint(binary.AppendVarint(doc, 4096), 0), 0)
	row("ap-b", ckptServed|ckptMeta)
	doc = binary.AppendUvarint(binary.AppendVarint(binary.AppendVarint(doc, 1<<40+1), 1_700_000_123), 7)
	row("ap-gone", ckptServed)
	doc = binary.AppendVarint(doc, 1)
	row("ap-idle", ckptMeta)
	doc = binary.AppendUvarint(binary.AppendVarint(doc, 1_700_000_100), 1)

	back := bareController(t)
	if err := back.restoreCheckpoint(doc); err != nil {
		t.Fatal(err)
	}
	if got, want := controllerState(back), controllerState(awkward); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored state\n got %+v\nwant %+v", got, want)
	}
	var views domain.ViewBuf
	back.dom.ViewsInto("amy", &views)
	if len(views.Views()) != 3 || views.Views()[0].ID != "ap-a" {
		t.Fatalf("restored views %+v, want ap-a among all three APs", views.Views())
	}
	again := back.appendCheckpointLocked(nil)
	_, users, aps := checkpointRows(t, again)
	for _, r := range users {
		if r.flags != ckptSession {
			t.Errorf("user row %q has flags %#x, want %#x", r.key, r.flags, ckptSession)
		}
	}
	for _, r := range aps {
		if r.flags&^ckptStatic != ckptServed|ckptMeta {
			t.Errorf("AP row %q has flags %#x, want served and lease metadata", r.key, r.flags)
		}
	}
	if len(users) != 3 || len(aps) != 3 || !bytes.Equal(again, good) {
		t.Fatalf("re-encoded %d user and %d AP rows, want 3 and 3, as the controller that never left writes", len(users), len(aps))
	}
}

// TestCheckpointDocumentAPsMatchMeta: the domain's APs are the lease
// table's keys in every state a controller reaches, so a document in
// which they differ — an AP without lease metadata, or lease metadata
// for an AP the domain lacks — is refused, not restored.
func TestCheckpointDocumentAPsMatchMeta(t *testing.T) {
	good := awkwardController(t).appendCheckpointLocked(nil)
	ends, _, _ := checkpointRows(t, good)
	withAPRows := func(ids ...string) []byte {
		doc := binary.AppendUvarint(append([]byte(nil), good[:ends[1]]...), uint64(len(ids)))
		for _, id := range ids {
			doc = append(journal.AppendString(doc, id), ckptServed|ckptMeta)
			doc = binary.AppendUvarint(binary.AppendVarint(binary.AppendVarint(doc, 0), 0), 1)
		}
		return doc
	}
	if _, _, err := decodeCheckpoint(withAPRows("ap-a", "ap-b", "ap-idle")); err != nil {
		t.Fatalf("control: %v", err)
	}
	for name, doc := range map[string][]byte{
		"AP without metadata": withAPRows("ap-a", "ap-b"),
		"metadata without AP": withAPRows("ap-a", "ap-b", "ap-extra", "ap-idle"),
	} {
		if _, _, err := decodeCheckpoint(doc); err == nil || !strings.Contains(err.Error(), "lease metadata") {
			t.Errorf("%s: decode = %v, want a refusal naming the lease metadata", name, err)
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
