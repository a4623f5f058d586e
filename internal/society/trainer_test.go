package society

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/s3wlan/s3wlan/internal/apps"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// trainerConfigs are the trainings TestTrainerMatchesTrain compares: Fig
// 10's intervals over the full window, Fig 11's history lengths, the gap
// statistic choosing k, a second clustering seed, and a one-day
// window that drops some users' only sessions.
func trainerConfigs() map[string]Config {
	cfgs := map[string]Config{}
	for _, iv := range []int64{60, 300, 600, 900, 1200} {
		cfg := DefaultConfig()
		cfg.CoLeaveWindowSeconds, cfg.HistoryDays = iv, 0
		cfgs[fmt.Sprintf("interval %d", iv)] = cfg
	}
	for _, hd := range []int{1, 3, 5, 7, 10, 13, 15, 18, 20} {
		cfg := DefaultConfig()
		cfg.HistoryDays = hd
		cfgs[fmt.Sprintf("history %d", hd)] = cfg
	}
	gap := DefaultConfig()
	gap.NumTypes = 0
	cfgs["gap statistic"] = gap
	seed := DefaultConfig()
	seed.Seed = 7
	cfgs["seed 7"] = seed
	return cfgs
}

// TestTrainerMatchesTrain: every model a shared Trainer trains — in
// sequence, and from eight goroutines at once on a fresh Trainer — writes
// the bytes and holds the pair table a one-shot Train writes and holds.
func TestTrainerMatchesTrain(t *testing.T) {
	tr, profiles := smallCampus(t)
	// A user with no profile whose only session, on the first day, pairs
	// with whoever shares its AP: in the full window and gone from a
	// one-day one.
	start, end := tr.TimeRange()
	first := tr.Sessions[0]
	tr = &trace.Trace{Sessions: append(tr.Sessions[:len(tr.Sessions):len(tr.Sessions)],
		trace.Session{User: "ghost", AP: first.AP, ConnectAt: first.ConnectAt, DisconnectAt: first.DisconnectAt + 1800})}
	if s, e := tr.TimeRange(); s != start || e != end {
		t.Fatalf("the ghost session moved the trace's range to [%d, %d]", s, e)
	}

	cfgs := trainerConfigs()
	want := map[string][]byte{}
	for name, cfg := range cfgs {
		m, err := Train(tr, profiles, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := WriteModel(&buf, m); err != nil {
			t.Fatal(err)
		}
		want[name] = buf.Bytes()
	}
	if bytes.Equal(want["seed 7"], want["history 15"]) || bytes.Equal(want["gap statistic"], want["history 15"]) {
		t.Fatal("the seed-7 or gap-statistic clustering trains the default model: nothing to compare")
	}
	if !bytes.Contains(want["interval 300"], []byte(`"ghost`)) || bytes.Contains(want["history 1"], []byte(`"ghost`)) {
		t.Fatal("the ghost's pairs are not in the full window's model, or are in the one-day one")
	}

	check := func(who string, trainer *Trainer) {
		for name, cfg := range cfgs {
			m, err := trainer.Train(cfg)
			if err != nil {
				t.Errorf("%s, %s: %v", who, name, err)
				continue
			}
			var buf bytes.Buffer
			if err := WriteModel(&buf, m); err != nil {
				t.Error(err)
			}
			if !bytes.Equal(buf.Bytes(), want[name]) {
				t.Errorf("%s, %s: the Trainer's model writes %d bytes unlike Train's %d", who, name, buf.Len(), len(want[name]))
			}
			if alone, _ := Train(tr, profiles, cfg); !reflect.DeepEqual(m, alone) {
				t.Errorf("%s, %s: the Trainer's model differs from Train's", who, name)
			}
			_, ghost := m.pairs.rank["ghost"]
			if in := cfg.HistoryDays == 0 || first.ConnectAt >= end-int64(cfg.HistoryDays)*86400; ghost != in {
				t.Errorf("%s, %s: the ghost is a model user: %v, its session in the window: %v", who, name, ghost, in)
			}
		}
	}
	shared := NewTrainer(tr, profiles)
	check("in sequence", shared)
	check("again", shared)
	concurrent := NewTrainer(tr, profiles)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check(fmt.Sprintf("goroutine %d", g), concurrent)
		}()
	}
	wg.Wait()
}

// TestTrainerErrors: a Trainer reports what Train reports, in Train's
// order — no sessions, then no sessions in the window, then no profiles —
// and a failed clustering stays failed.
func TestTrainerErrors(t *testing.T) {
	tr, profiles := buildTrainingTrace()
	oneDay := DefaultConfig()
	oneDay.HistoryDays = 1
	late := &trace.Trace{Sessions: []trace.Session{{User: "u", AP: "ap", DisconnectAt: 3 * 86400}}}
	for _, tc := range []struct {
		name     string
		tr       *trace.Trace
		profiles *apps.ProfileStore
		cfg      Config
		want     error
	}{
		{"empty trace, no profiles", &trace.Trace{}, nil, DefaultConfig(), ErrNoSessions},
		{"empty window, no profiles", late, nil, oneDay, ErrNoSessions},
		{"empty window", late, profiles, oneDay, ErrNoSessions},
		{"no profiles", tr, nil, DefaultConfig(), ErrNoProfiles},
		{"empty profiles", tr, apps.BuildProfiles(nil, 0, apps.NewClassifier()), DefaultConfig(), ErrNoProfiles},
	} {
		trainer := NewTrainer(tc.tr, tc.profiles)
		for run := 0; run < 2; run++ {
			_, err := trainer.Train(tc.cfg)
			if _, alone := Train(tc.tr, tc.profiles, tc.cfg); !errors.Is(err, tc.want) || fmt.Sprint(err) != fmt.Sprint(alone) {
				t.Errorf("%s, run %d: err = %v, Train's %v; want %v", tc.name, run, err, alone, tc.want)
			}
		}
	}
}
