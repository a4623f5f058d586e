package incremental

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/s3wlan/s3wlan/internal/socialgraph"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// driveEngine pushes a deterministic Connect/Disconnect mix through an
// engine — the same shape the controller's observer hook produces.
func driveEngine(e *Engine, events int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	aps := []trace.APID{"ap-0", "ap-1", "ap-2", "ap-3"}
	on := make(map[trace.UserID]trace.APID)
	ts := int64(5000)
	for i := 0; i < events; i++ {
		ts += int64(rng.Intn(40))
		u := trace.UserID(fmt.Sprintf("u-%02d", rng.Intn(16)))
		if ap, ok := on[u]; ok && rng.Float64() < 0.5 {
			e.Disconnect(u, ap, ts)
			delete(on, u)
			continue
		}
		ap := aps[rng.Intn(len(aps))]
		if prev, ok := on[u]; ok {
			e.Disconnect(u, prev, ts)
		}
		e.Connect(u, ap, ts)
		on[u] = ap
	}
}

// forEachEdge visits every undirected edge of g once, as (u, v, weight)
// with u < v.
func forEachEdge(g *socialgraph.Graph, fn func(u, v trace.UserID, w float64)) {
	for _, u := range g.Vertices() {
		for _, v := range g.Neighbors(u) {
			if w, _ := g.Weight(u, v); u < v {
				fn(u, v, w)
			}
		}
	}
}

// graphsEqual compares two θ-graphs vertex-for-vertex and
// edge-for-edge, including weights.
func graphsEqual(a, b *socialgraph.Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	equal := true
	forEachEdge(a, func(u, v trace.UserID, w float64) {
		if bw, ok := b.Weight(u, v); !ok || bw != w {
			equal = false
		}
	})
	return equal
}

// snapshotsEquivalent asserts every published layer matches: pair
// probabilities, the θ-graph, and the canonical clique cover.
func snapshotsEquivalent(t *testing.T, tag string, a, b *Snapshot) {
	t.Helper()
	probA, _, _ := asMaps(a.Model())
	if probB, _, _ := asMaps(b.Model()); !reflect.DeepEqual(probA, probB) {
		t.Fatalf("%s: pair probabilities diverged", tag)
	}
	if a.Users != b.Users || a.Edges != b.Edges {
		t.Fatalf("%s: %d users, %d edges vs %d, %d", tag, a.Users, a.Edges, b.Users, b.Edges)
	}
	if !graphsEqual(a.Graph(), b.Graph()) {
		t.Fatalf("%s: θ-graphs diverged", tag)
	}
	_, coverA := derived(a)
	if _, coverB := derived(b); !reflect.DeepEqual(coverA, coverB) {
		t.Fatalf("%s: clique covers diverged\na: %v\nb: %v", tag, coverA, coverB)
	}
}

// testStateConfig mirrors the equivalence suite: short windows so a
// few hundred random events actually produce encounters, co-leaves and
// threshold crossings.
func testStateConfig() Config {
	cfg := DefaultConfig()
	cfg.RefreshEvents = 0
	cfg.Society.MinEncounterSeconds = 200
	cfg.Society.CoLeaveWindowSeconds = 150
	cfg.Society.MinEncounters = 2
	return cfg
}

// TestEngineStateRoundtrip: a restored engine must publish the same
// social state as the original — and keep agreeing when both see the
// same future events, proving mid-presence learner state survived.
func TestEngineStateRoundtrip(t *testing.T) {
	cfg := testStateConfig()
	orig := New(cfg)
	driveEngine(orig, 600, 21)
	orig.Refresh()

	var buf bytes.Buffer
	if err := orig.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	restored := New(cfg)
	if err := restored.ReadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	snapshotsEquivalent(t, "post-restore", orig.Snapshot(), restored.Snapshot())

	// Same future → same published state.
	driveEngine(orig, 400, 22)
	driveEngine(restored, 400, 22)
	orig.Refresh()
	restored.Refresh()
	snapshotsEquivalent(t, "post-restore future", orig.Snapshot(), restored.Snapshot())
}

// typedEngine drives an engine through events, a mid-stream type
// assignment and more events — the history behind the testdata states.
func typedEngine(cfg Config) *Engine {
	e := New(cfg)
	driveEngine(e, 300, 31)
	types := make(map[trace.UserID]int)
	for i := 0; i < 16; i++ {
		types[trace.UserID(fmt.Sprintf("u-%02d", i))] = i % 3
	}
	e.SetTypes(types, [][]float64{{0.9, 0.2, 0.1}, {0.2, 0.8, 0.3}, {0.1, 0.3, 0.7}})
	driveEngine(e, 300, 32)
	return e
}

// TestEngineStateRoundtripWithTypes: the α·T prior layer must survive
// too — restore without a separate SetTypes call.
func TestEngineStateRoundtripWithTypes(t *testing.T) {
	cfg := testStateConfig()
	orig := typedEngine(cfg)
	orig.Refresh()

	var buf bytes.Buffer
	if err := orig.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	restored := New(cfg)
	if err := restored.ReadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	snapshotsEquivalent(t, "typed restore", orig.Snapshot(), restored.Snapshot())
	om, rm := orig.Snapshot().Model(), restored.Snapshot().Model()
	if !reflect.DeepEqual(om.Types, rm.Types) || !reflect.DeepEqual(om.TypeMatrix, rm.TypeMatrix) {
		t.Fatal("type assignment did not round-trip")
	}

	driveEngine(orig, 200, 33)
	driveEngine(restored, 200, 33)
	orig.Refresh()
	restored.Refresh()
	snapshotsEquivalent(t, "typed restore future", orig.Snapshot(), restored.Snapshot())
}

// TestEngineReadStateVersion1: a state of a version this release does
// not read — here version 1's marker ahead of an otherwise well-formed
// current stream — is refused by its number, and leaves the engine as
// it was instead of quietly starting from nothing.
func TestEngineReadStateVersion1(t *testing.T) {
	var cur bytes.Buffer
	if err := typedEngine(testStateConfig()).WriteState(&cur); err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte{1}, cur.Bytes()[1:]...)
	e := New(testStateConfig())
	err := e.ReadState(bytes.NewReader(v1))
	if want := fmt.Sprintf("state version 1, this release reads %d", stateVersion); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ReadState(version 1) = %v, want an error containing %q", err, want)
	}
	if e.Snapshot().Seq != 0 {
		t.Fatal("a rejected state must leave the engine untouched")
	}
}

// TestEngineReadStateParentFixture: testdata/engine_state_v2.bin is
// typedEngine's state as written by the release before the learner was
// folded into the engine (two nested streams then, one now). It must
// restore to exactly what a fresh engine fed the same events holds —
// published snapshot, raw tallies, type assignment, open presences and
// recent-leaving windows — and keep agreeing afterwards.
func TestEngineReadStateParentFixture(t *testing.T) {
	cfg := testStateConfig()
	fixture, err := os.ReadFile("testdata/engine_state_v2.bin")
	if err != nil {
		t.Fatal(err)
	}
	restored, fresh := New(cfg), typedEngine(cfg)
	if err := restored.ReadState(bytes.NewReader(fixture)); err != nil {
		t.Fatal(err)
	}
	fresh.Refresh()
	for _, tag := range []string{"restored", "future"} {
		snapshotsEquivalent(t, tag, fresh.Snapshot(), restored.Snapshot())
		if !reflect.DeepEqual(fresh.Model(), restored.Model()) {
			t.Fatalf("%s: tallies or type assignment diverged", tag)
		}
		if !reflect.DeepEqual(fresh.live.open, restored.live.open) {
			t.Fatalf("%s: open presences diverged:\nfresh    %v\nrestored %v", tag, fresh.live.open, restored.live.open)
		}
		if !reflect.DeepEqual(fresh.live.recent, restored.live.recent) {
			t.Fatalf("%s: recent-leaving windows diverged", tag)
		}
		if len(fresh.live.open) == 0 || len(fresh.live.recent) == 0 || fresh.live.numPairs == 0 {
			t.Fatal("test vacuous: the stream left no open presence, leave window or tally")
		}
		for _, e := range []*Engine{fresh, restored} {
			driveEngine(e, 200, 33)
			e.Refresh()
		}
	}
}

func TestEngineReadStateRejectsDamage(t *testing.T) {
	e := New(DefaultConfig())
	if err := e.ReadState(bytes.NewReader([]byte("not json"))); err == nil {
		t.Fatal("expected decode error")
	}
	if err := e.ReadState(bytes.NewReader([]byte(`{"version":7}`))); err == nil {
		t.Fatal("expected version error")
	}
	if err := e.ReadState(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected an error for empty input")
	}
	if e.Snapshot().Seq != 0 {
		t.Fatal("a rejected state must leave the engine untouched")
	}
	// The control for forgedStates' header cases: a sound header restores.
	if err := e.ReadState(strings.NewReader(headerOnlyState(`{"version":2,"types":{"a":0},"type_matrix":[[0.1]]}`))); err != nil {
		t.Fatalf("a well-formed header-only state: %v", err)
	}
}

// forgedStates are well-formed up to a count or index that lies.
var forgedStates = map[string]string{
	"2⁵⁶ users":          "\x02\xff\xff\xff\xff\xff\xff\xff\x7f",
	"2³² rows":           "\x02\x00\x02\x0d{\"version\":2}\x00\xff\xff\xff\xff\x0f",
	"64 MiB header":      "\x02\x00\x02\x80\x80\x80\x20{",
	"equal indices":      "\x02\x01\x01a\x02\x0d{\"version\":2}\x02\x01a\x01b\x01\x00\x00\x01\x01",
	"index out of range": "\x02\x01\x01a\x02\x0d{\"version\":2}\x02\x01a\x01b\x01\x00\x07\x01\x01",
	"one user twice":     "\x02\x01\x01a\x02\x0d{\"version\":2}\x02\x01a\x01a\x01\x00\x01\x01\x01",
	"pair twice":         "\x02\x01\x01a\x02\x0d{\"version\":2}\x02\x01a\x01b\x02\x00\x01\x01\x01\x01\x00\x02\x01",
	"2³² encounters":     "\x02\x01\x01a\x02\x0d{\"version\":2}\x02\x01a\x01b\x01\x00\x01\x80\x80\x80\x80\x10\x01",
	"ragged type matrix": headerOnlyState(`{"version":2,"types":{"a":0},"type_matrix":[[0.1,0.2]]}`),
	"negative type":      headerOnlyState(`{"version":2,"types":{"a":-1},"type_matrix":[[0.1]]}`),
}

// headerOnlyState is a state stream with no users and no tallies around
// the given JSON header.
func headerOnlyState(header string) string {
	return "\x02\x00\x02" + string(rune(len(header))) + header + "\x00\x00"
}

// TestEngineReadStateForgedCounts: a count the input does not back up
// is an error, and costs no more memory than the bounded pre-sizing.
func TestEngineReadStateForgedCounts(t *testing.T) {
	for name, in := range forgedStates {
		e := New(testStateConfig())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := e.ReadState(bytes.NewReader([]byte(in)))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: expected an error", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
			t.Errorf("%s: rejecting %d bytes allocated %d MiB", name, len(in), grew>>20)
		}
	}
}

// FuzzEngineReadState: ReadState takes bytes from disk. Whatever they
// are — another version's, a JSON document, truncated, with forged
// counts or user indices — it must return an error or a consistent,
// working engine, never panic; and what it accepts it writes back as
// bytes that read and write back unchanged.
func FuzzEngineReadState(f *testing.F) {
	cfg := testStateConfig()
	var v2 bytes.Buffer
	if err := typedEngine(cfg).WriteState(&v2); err != nil {
		f.Fatal(err)
	}
	fixture, err := os.ReadFile("testdata/engine_state_v2.bin")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte{1}, v2.Bytes()[1:]...))
	f.Add(fixture)
	f.Add(v2.Bytes())
	f.Add(v2.Bytes()[:v2.Len()/2])
	for _, in := range forgedStates {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e := New(cfg)
		if err := e.ReadState(bytes.NewReader(data)); err != nil {
			return
		}
		s := e.Snapshot()
		if g := s.Graph(); s.Users != g.NumVertices() || s.Edges != g.NumEdges() {
			t.Fatalf("accepted state is inconsistent: %d users / %d edges, graph has %d / %d",
				s.Users, s.Edges, g.NumVertices(), g.NumEdges())
		}
		var first, second bytes.Buffer
		if err := e.WriteState(&first); err != nil {
			t.Fatal(err)
		}
		again := New(cfg)
		if err := again.ReadState(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("an accepted state, written back, does not read: %v", err)
		}
		if err := again.WriteState(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("an accepted state writes back as %d bytes, and those read and write back as %d other bytes", first.Len(), second.Len())
		}
		driveEngine(e, 50, 1)
		e.Refresh()
		if err := e.WriteState(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
}

// campusSizedEngine is an engine the size the shipped campus makes it —
// 600 users, tens of thousands of tallied pairs — with a type
// assignment, a stacked open presence, names JSON has to escape, and
// leave windows still open. With restartAt ≥ 0 the engine that learns
// the rounds from that one on is a fresh one, restored from the state
// of the rounds before.
func campusSizedEngine(t *testing.T, restartAt int) *Engine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.RefreshEvents = 0
	e := New(cfg)
	rng := rand.New(rand.NewSource(7))
	user := func(i int) trace.UserID { return trace.UserID(fmt.Sprintf("user-%03d", i)) }
	types := make(map[trace.UserID]int)
	for i := 0; i < 600; i++ {
		types[user(i)] = i % 4
	}
	e.SetTypes(types, [][]float64{{0.4, 0.1, 0.1, 0.1}, {0.1, 0.4, 0.1, 0.1}, {0.1, 0.1, 0.4, 0.1}, {0.1, 0.1, 0.1, 0.4}})
	ts := int64(0)
	for round := 0; round < 1500; round++ {
		if round == restartAt {
			var state bytes.Buffer
			if err := e.WriteState(&state); err != nil {
				t.Fatal(err)
			}
			if e = New(cfg); e.ReadState(&state) != nil {
				t.Fatal("a state just written does not read back")
			}
		}
		ap := trace.APID(fmt.Sprintf("ap-%02d", round%40))
		group := rng.Perm(600)[:12]
		for _, i := range group {
			e.Connect(user(i), ap, ts)
		}
		for k, i := range group {
			if err := e.Disconnect(user(i), ap, ts+3600+int64(10*k)); err != nil {
				t.Fatal(err)
			}
		}
		ts += 4000
	}
	for i, u := range []trace.UserID{user(1), user(1), user(2), "we\"ird\n", "é☃"} {
		e.Connect(u, "ap \\ 00", ts+int64(i)) // user-001 stacks two sessions
	}
	if err := e.Disconnect(user(2), "ap \\ 00", ts+700); err != nil {
		t.Fatal(err)
	}
	if _, enc, _ := asMaps(e.Model()); len(enc) < 50000 {
		n := len(enc)
		t.Fatalf("test set-up: %d tallied pairs, want a campus's tens of thousands", n)
	}
	return e
}

// plainWriter is an io.Writer with no buffer to lend.
type plainWriter struct{ buf []byte }

func (w *plainWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// TestWriteStateStreams: a checkpoint walks the tally store once into a
// buffer the engine keeps — it does not discover a name table, stage
// rows or marshal maps, so what it allocates does not grow with the
// state — whatever the writer, the same bytes, and what it writes
// restores, on a fresh engine, to the writer's tallies, presences and
// types.
func TestWriteStateStreams(t *testing.T) {
	fromFixture := New(testStateConfig())
	fixture, err := os.ReadFile("testdata/engine_state_v2.bin")
	if err != nil {
		t.Fatal(err)
	}
	if err := fromFixture.ReadState(bytes.NewReader(fixture)); err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]*Engine{"campus-sized": campusSizedEngine(t, -1), "restored from engine_state_v2.bin": fromFixture} {
		var lending bytes.Buffer // has an AvailableBuffer, as the journal's checkpoint frame
		var plain plainWriter
		for w, reset := range map[io.Writer]func(){&lending: lending.Reset, &plain: func() { plain.buf = plain.buf[:0] }} {
			if allocs := testing.AllocsPerRun(5, func() {
				reset()
				if err := e.WriteState(w); err != nil {
					t.Fatal(err)
				}
			}); allocs > 100 {
				t.Errorf("%s: a checkpoint into a %T made %v allocations, want ≤ 100", name, w, allocs)
			}
		}
		if len(plain.buf) == 0 || !bytes.Equal(plain.buf, lending.Bytes()) {
			t.Errorf("%s: the two writers got different bytes (%d and %d of them)", name, lending.Len(), len(plain.buf))
		}
		restored := New(e.cfg)
		if err := restored.ReadState(bytes.NewReader(plain.buf)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(e.Model(), restored.Model()) {
			t.Errorf("%s: restored tallies or types differ from the writer's", name)
		}
		if !reflect.DeepEqual(e.live.open, restored.live.open) || !reflect.DeepEqual(e.live.recent, restored.live.recent) {
			t.Errorf("%s: restored presences or leave windows differ from the writer's:\n%v\n%v", name, e.live.open, restored.live.open)
		}
		if len(e.live.open) == 0 || len(e.live.recent) == 0 {
			t.Errorf("%s: test vacuous: no open presence or leave window", name)
		}
	}
}

// TestWriteStateIsAFunctionOfState: an engine's state bytes follow from
// its state alone. Two writes of one engine are equal, an engine fed the
// same events writes the same bytes — also when it was restored from its
// own state mid-way, and so swept its expired leave windows on another
// schedule — and a state read back writes the bytes it was read from:
// for an engine the size of a campus, and for
// testdata/engine_state_v2.bin, which a release before this order wrote
// in map order and which now writes what typedEngine writes.
func TestWriteStateIsAFunctionOfState(t *testing.T) {
	write := func(e *Engine) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := e.WriteState(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	read := func(state []byte) *Engine {
		t.Helper()
		e := New(testStateConfig())
		if err := e.ReadState(bytes.NewReader(state)); err != nil {
			t.Fatal(err)
		}
		return e
	}
	fixture, err := os.ReadFile("testdata/engine_state_v2.bin")
	if err != nil {
		t.Fatal(err)
	}
	campus := campusSizedEngine(t, -1)
	for name, c := range map[string]struct{ engine, twin *Engine }{
		"campus-sized":                      {campus, campusSizedEngine(t, -1)},
		"campus-sized, restarted at 700":    {campus, campusSizedEngine(t, 700)},
		"campus-sized, restarted at 1100":   {campus, campusSizedEngine(t, 1100)},
		"restored from engine_state_v2.bin": {read(fixture), typedEngine(testStateConfig())},
	} {
		state := write(c.engine)
		if again := write(c.engine); !bytes.Equal(again, state) {
			t.Errorf("%s: two writes of one engine differ", name)
		}
		if twin := write(c.twin); !bytes.Equal(twin, state) {
			t.Errorf("%s: an engine fed the same events wrote other bytes", name)
		}
		if back := write(read(state)); !bytes.Equal(back, state) {
			t.Errorf("%s: the state read back writes other bytes", name)
		}
	}
}

// TestReadStateUnseenHeaderUser: every name a stream carries gets an id,
// whichever part carries it. Here the header has an open presence and a
// recent leaving of users the seen-user table lacks; their next
// departures must tally like anyone's.
func TestReadStateUnseenHeaderUser(t *testing.T) {
	header := `{"version":2,"open":{"ap":{"a":{"starts":[100],"since":100},"ghost":{"starts":[100],"since":100}}},` +
		`"recent_ends":{"ap":[{"user":"gone","at":990}]}}`
	table := string(appendUserTable(nil, []trace.UserID{"a"}))
	stream := "\x02" + table + "\x02" + string(binary.AppendUvarint(nil, uint64(len(header)))) + header + table + "\x00"
	e := New(testStateConfig())
	if err := e.ReadState(strings.NewReader(stream)); err != nil {
		t.Fatal(err)
	}
	if s := e.Snapshot(); s.Users != 3 {
		t.Errorf("restored %d users, want a, ghost and gone", s.Users)
	}
	if err := e.Disconnect("ghost", "ap", 1000); err != nil {
		t.Fatal(err)
	}
	m := e.Model()
	if got, _ := m.Counts("a", "ghost"); got != 1 {
		t.Errorf("encounters(a, ghost) = %d, want 1", got)
	}
	if _, got := m.Counts("ghost", "gone"); got != 1 {
		t.Errorf("co-leaves(ghost, gone) = %d, want 1", got)
	}
}
