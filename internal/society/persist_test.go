package society

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
)

func sampleModel() *Model {
	m, err := NewModel([]PairStat{
		{Pair{"u3", "u1"}, 5, 2, 0.4, true}, // out of order both ways: NewModel sorts
		{Pair{"u1", "u2"}, 10, 8, 0.8, true},
	},
		map[trace.UserID]int{"u1": 0, "u2": 0, "u3": 1},
		[][]float64{{0.5, 0.1}, {0.1, 0.6}},
		[][]float64{{0.5, 0.5, 0, 0, 0, 0}, {0, 0, 0.5, 0.5, 0, 0}}, 0.3)
	if err != nil {
		panic(err)
	}
	return m
}

func TestModelRoundTrip(t *testing.T) {
	m := sampleModel()
	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Errorf("round trip mismatch:\nwant %+v\ngot  %+v", m, got)
	}
	// Every accessor answers identically after the round trip.
	for _, u := range []trace.UserID{"u1", "u2", "u3", "ghost"} {
		for _, v := range []trace.UserID{"u1", "u2", "u3", "ghost"} {
			wantP, wantOK := m.Prob(u, v)
			wantE, wantC := m.Counts(u, v)
			p, ok := got.Prob(u, v)
			if e, c := got.Counts(u, v); p != wantP || ok != wantOK || e != wantE || c != wantC || got.Index(u, v) != m.Index(u, v) {
				t.Errorf("(%s,%s) after round trip: Prob %v (%v), Counts %d, %d, Index %v; before %v (%v), %d, %d, %v",
					u, v, p, ok, e, c, got.Index(u, v), wantP, wantOK, wantE, wantC, m.Index(u, v))
			}
		}
	}
	if p, ok := got.Prob("u3", "u1"); p != 0.4 || !ok {
		t.Errorf("Prob(u3, u1) = %v (%v), want 0.4", p, ok)
	}
}

// TestWriteModelDigestPinned: the serialized form of the small campus's
// model, with the paper's 15-day history and with the full window, is the
// one the parent of the change that moved Model onto the pair table
// wrote — SHA-256 taken there, 250 388 and 314 999 bytes. A change to the
// document (key form, field order, number formatting) or to a learned
// value moves it.
func TestWriteModelDigestPinned(t *testing.T) {
	tr, profiles := smallCampus(t)
	for history, want := range map[int]string{
		15: "e9502dc1a21fbb0a2fef49a462766bf4aa16942f00a75a404792163b387bcf42",
		0:  "fc8f736a57b7885af6e590b0225186081ef66413f73177ca15a4bf191466d4a6",
	} {
		cfg := DefaultConfig()
		cfg.HistoryDays = history
		m, err := Train(tr, profiles, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteModel(&buf, m); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
			t.Errorf("history %d: WriteModel's %d bytes hash to %s, pinned %s", history, buf.Len(), got, want)
		}
		// And the document reads back as the model it was written from,
		// pair by pair.
		reread, err := ReadModel(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var trained, got []PairStat
		m.EachPair(func(p PairStat) { trained = append(trained, p) })
		reread.EachPair(func(p PairStat) { got = append(got, p) })
		if !reflect.DeepEqual(got, trained) || reread.NumPairs() != m.NumPairs() || len(got) < 5000 {
			t.Errorf("history %d: the re-read model walks %d pairs (%d supported), the trained one %d (%d)",
				history, len(got), reread.NumPairs(), len(trained), m.NumPairs())
		}
	}
}

func TestModelFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.json")
	m := sampleModel()
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Error("file round trip mismatch")
	}
	if _, err := LoadModel(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should error")
	}
}

// TestSaveModelWritesWriteModelBytes: SaveModel hands atomicfile's
// unbuffered temp file to WriteModel, and the file holds exactly the
// bytes WriteModel writes to a buffer — here a model of 3 000 pairs,
// ≈ 150 KB, many times any write buffer.
func TestSaveModelWritesWriteModelBytes(t *testing.T) {
	var pairs []PairStat
	types := map[trace.UserID]int{}
	for i := 0; i < 3000; i++ {
		a, b := trace.UserID(fmt.Sprintf("user-%04d", i)), trace.UserID(fmt.Sprintf("user-%04d", (i*7+1)%3000))
		types[a] = i % 2
		pairs = append(pairs, PairStat{Pair{a, b}, 3 + i%9, i % 4, float64(i%100) / 100, i%3 != 0})
	}
	m, err := NewModel(pairs, types, [][]float64{{0.5, 0.1}, {0.1, 0.6}},
		[][]float64{{0.5, 0.5, 0, 0, 0, 0}, {0, 0, 0.5, 0.5, 0, 0}}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteModel(&want, m); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() < 100_000 || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("SaveModel wrote %d bytes, WriteModel %d; equal: %v", len(got), want.Len(), bytes.Equal(got, want.Bytes()))
	}
}

func TestWriteModelNil(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteModel(&buf, nil); err == nil {
		t.Error("nil model should error")
	}
}

func TestReadModelErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"garbage", "not json"},
		{"bad version", `{"version": 99}`},
		{"bad pair key", `{"version":1,"pair_prob":{"nodelimiter":0.5}}`},
		{"empty side", `{"version":1,"pair_prob":{"|b":0.5}}`},
		{"bad encounter key", `{"version":1,"encounters":{"x":3}}`},
		{"bad coleave key", `{"version":1,"co_leaves":{"y":3}}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadModel(strings.NewReader(tt.in)); err == nil {
				t.Error("expected error")
			}
		})
	}
}

// TestReadModelRejectsCollidingKeys: a document that lists one pair under
// two keys used to fold them in map order, so which value survived changed
// from run to run. It is rejected, whichever object holds the two keys.
func TestReadModelRejectsCollidingKeys(t *testing.T) {
	for _, tt := range []struct{ name, in, want string }{
		{"both orders in pair_prob", `{"version":1,"pair_prob":{"u1|u2":0.9,"u2|u1":0.1}}`, `"u1|u2" listed twice`},
		{"both orders in encounters", `{"version":1,"encounters":{"u2|u1":3,"u1|u2":4}}`, `"u1|u2" listed twice`},
		{"one order per object", `{"version":1,"pair_prob":{"u1|u2":0.5},"co_leaves":{"u2|u1":2}}`, `"u1|u2" listed twice`},
		{"one user", `{"version":1,"encounters":{"u1|u1":3}}`, `malformed pair key "u1|u1"`},
		{"negative count", `{"version":1,"encounters":{"u1|u2":-3}}`, `"u1|u2": counts -3, 0 out of range`},
		{"count over 32 bits", `{"version":1,"co_leaves":{"u1|u2":4294967296}}`, `out of range`},
	} {
		t.Run(tt.name, func(t *testing.T) {
			for run := 0; run < 20; run++ { // map order varies between runs
				if _, err := ReadModel(strings.NewReader(tt.in)); err == nil || !strings.Contains(err.Error(), tt.want) {
					t.Fatalf("err = %v, want one naming %s", err, tt.want)
				}
			}
		})
	}
}

// TestNewModelCanonicalises: the constructor orders a pair's users, sorts,
// drops a pair it holds nothing about and a probability without support,
// and rejects a pair of one user and a pair listed twice in either order.
func TestNewModelCanonicalises(t *testing.T) {
	m, err := NewModel([]PairStat{
		{Pair: Pair{"b", "a"}, Encounters: 4, CoLeaves: 1, Prob: 0.25, Supported: true},
		{Pair: Pair{"c", "a"}, Encounters: 1, Prob: 0.7}, // no support: the probability is not kept
		{Pair: Pair{"d", "a"}}, // nothing to keep
	}, nil, nil, nil, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	var got []PairStat
	m.EachPair(func(p PairStat) { got = append(got, p) })
	want := []PairStat{{Pair{"a", "b"}, 4, 1, 0.25, true}, {Pair{"a", "c"}, 1, 0, 0, false}}
	if !reflect.DeepEqual(got, want) || m.NumPairs() != 1 {
		t.Errorf("pairs = %+v (NumPairs %d), want %+v", got, m.NumPairs(), want)
	}
	if m.Index("b", "a") != 0.25 || m.Index("a", "c") != 0 || m.Index("a", "d") != 0 {
		t.Errorf("θ(b,a), θ(a,c), θ(a,d) = %v, %v, %v; want 0.25, 0, 0", m.Index("b", "a"), m.Index("a", "c"), m.Index("a", "d"))
	}
	for name, pairs := range map[string][]PairStat{
		`"a|a" of one user`:  {{Pair: Pair{"a", "a"}, Encounters: 1}},
		`"a|b" listed twice`: {{Pair: Pair{"a", "b"}, Encounters: 1}, {Pair: Pair{"b", "a"}, CoLeaves: 2}},
	} {
		if _, err := NewModel(pairs, nil, nil, nil, 0); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("NewModel(%+v): err = %v, want one saying %s", pairs, err, name)
		}
	}
}

// TestWriteModelRefusesPipeInID: "a|b|c" is the key of (a, b|c) and of
// (a|b, c); WriteModel once wrote it and ReadModel split it at the first.
func TestWriteModelRefusesPipeInID(t *testing.T) {
	m, err := NewModel([]PairStat{{Pair: Pair{"a|b", "c"}, Encounters: 2}}, nil, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err == nil || !strings.Contains(err.Error(), `"a|b"`) || buf.Len() != 0 {
		t.Errorf("WriteModel = %v after %d bytes, want a refusal naming \"a|b\" and nothing written", err, buf.Len())
	}
}

func TestReadModelMinimal(t *testing.T) {
	m, err := ReadModel(strings.NewReader(`{"version":1,"alpha":0.3}`))
	if err != nil {
		t.Fatal(err)
	}
	if m.Alpha != 0.3 || m.Types == nil {
		t.Errorf("minimal model = %+v", m)
	}
	if got := m.Index("a", "b"); got != 0 {
		t.Errorf("empty model Index = %v", got)
	}
}

func TestTopPairs(t *testing.T) {
	m := sampleModel()
	top := m.TopPairs(1)
	if len(top) != 1 || top[0] != MakePair("u1", "u2") {
		t.Errorf("TopPairs(1) = %v", top)
	}
	all := m.TopPairs(10)
	if len(all) != 2 {
		t.Errorf("TopPairs(10) = %v", all)
	}
	if prob, _, _ := asMaps(m); prob[all[0]] < prob[all[1]] {
		t.Error("TopPairs not sorted by strength")
	}
}

func TestPairKeyWithPipeInID(t *testing.T) {
	// A user ID containing '|' would be ambiguous; verify the parser
	// splits on the FIRST pipe and round-trips canonical IDs (hashed IDs
	// are hex, so this is defensive only).
	p, err := parsePairKey("a|b|c")
	if err != nil {
		t.Fatal(err)
	}
	if p.A != "a" || p.B != "b|c" {
		t.Errorf("parsePairKey = %+v", p)
	}
}
