package incremental

import (
	"reflect"
	"testing"

	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/trace"
)

func TestTalliesPruneEmptyAPEntries(t *testing.T) {
	// Regression: empty open[ap] and recent[ap] entries were never
	// deleted, leaking memory on controllers seeing many transient APs.
	l := newTallies(testConfig().Society)
	for i := 0; i < 50; i++ {
		ap := trace.APID(rune('A' + i%26))
		ts := int64(i * 10000)
		l.connect("u1", ap, ts)
		if _, err := l.disconnect("u1", ap, ts+700); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(l.open); got != 0 {
		t.Errorf("open AP entries = %d, want 0 (all presences closed)", got)
	}
	l.compact(1_000_000_000)
	if got := len(l.recent); got != 0 {
		t.Errorf("recent AP entries after compact = %d, want 0", got)
	}
}

func TestTalliesDisconnectTouched(t *testing.T) {
	l := newTallies(testConfig().Society)
	l.connect("u1", "ap1", 0)
	l.connect("u2", "ap1", 0)
	l.connect("u3", "ap1", 0)
	// moved is what a disconnect reports, each pair once.
	moved := func(u trace.UserID, ts int64) map[society.Pair]tally {
		t.Helper()
		touched, err := l.disconnect(u, "ap1", ts)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[society.Pair]tally)
		for _, tp := range touched {
			pair := tp.key.pair(l.names)
			if prev, dup := out[pair]; dup {
				t.Errorf("%v reported twice: %v, %v", pair, prev, tp.tally)
			}
			out[pair] = tp.tally
		}
		return out
	}
	// Two encounters (u1-u2, u1-u3), no co-leaves yet.
	got := moved("u1", 3600)
	want := map[society.Pair]tally{{A: "u1", B: "u2"}: {1, 0}, {A: "u1", B: "u3"}: {1, 0}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("touched = %v, want %v", got, want)
	}
	// u2 leaves inside the co-leave window: a co-leave with u1 and an
	// encounter with u3, each reported with its counts after the event.
	got = moved("u2", 3700)
	want = map[society.Pair]tally{{A: "u1", B: "u2"}: {1, 1}, {A: "u2", B: "u3"}: {1, 0}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("touched = %v, want %v", got, want)
	}
}

// TestTalliesDisconnectReportsAPairOnce: an event that both encounters
// and co-leaves a pair — the other user closed one of two stacked
// sessions just before — reports the pair once, with both counts.
func TestTalliesDisconnectReportsAPairOnce(t *testing.T) {
	l := newTallies(testConfig().Society)
	l.connect("u1", "ap", 0)
	l.connect("u1", "ap", 100) // stacked: closing the first leaves u1 present
	l.connect("u2", "ap", 0)
	if _, err := l.disconnect("u1", "ap", 3600); err != nil {
		t.Fatal(err)
	}
	touched, err := l.disconnect("u2", "ap", 3650)
	if err != nil {
		t.Fatal(err)
	}
	if want := []tallyRow{{makePairKey(0, 1), tally{1, 1}}}; !reflect.DeepEqual(touched, want) {
		t.Errorf("touched = %v, want %v", touched, want)
	}
}
