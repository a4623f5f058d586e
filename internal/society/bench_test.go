package society

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/s3wlan/s3wlan/internal/apps"
	"github.com/s3wlan/s3wlan/internal/synth"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// benchSessions builds a day of sessions on a handful of APs.
func benchSessions(n int) []trace.Session {
	rng := rand.New(rand.NewSource(3))
	out := make([]trace.Session, 0, n)
	for i := 0; i < n; i++ {
		start := int64(rng.Intn(86400))
		out = append(out, trace.Session{
			User:         trace.UserID(fmt.Sprintf("u%03d", rng.Intn(200))),
			AP:           trace.APID(fmt.Sprintf("ap%d", rng.Intn(8))),
			ConnectAt:    start,
			DisconnectAt: start + int64(600+rng.Intn(7200)),
			Bytes:        int64(rng.Intn(1 << 20)),
		})
	}
	return out
}

func BenchmarkExtractCoLeavings(b *testing.B) {
	sessions := benchSessions(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExtractCoLeavings(sessions, 300)
	}
}

func BenchmarkExtractEncounters(b *testing.B) {
	sessions := benchSessions(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExtractEncounters(sessions, 600)
	}
}

// BenchmarkTrain is one training on the default campus's 28 training
// days, with the paper's 15-day history and with the full window (what
// Fig 10 sweeps).
func BenchmarkTrain(b *testing.B) {
	campus := synth.DefaultConfig()
	full, _, err := synth.Generate(campus)
	if err != nil {
		b.Fatal(err)
	}
	train, _ := full.SplitAt(campus.Epoch + 28*86400)
	profiles := apps.BuildProfiles(train.Flows, campus.Epoch, apps.NewClassifier())
	for _, days := range []int{15, 0} {
		cfg := DefaultConfig()
		cfg.HistoryDays = days
		b.Run(fmt.Sprintf("history=%d", days), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Train(train, profiles, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainSweep is the sixteen trainings of a default campus's sweep
// — Fig 10's five intervals over the full window, Fig 11's nine history
// lengths, Fig 12's and the baseline panel's paper configuration — on one
// Trainer built per sweep (as experiments.PrepareTrace builds one per
// campus), against sixteen one-shot Trains.
func BenchmarkTrainSweep(b *testing.B) {
	campus := synth.DefaultConfig()
	full, _, err := synth.Generate(campus)
	if err != nil {
		b.Fatal(err)
	}
	train, _ := full.SplitAt(campus.Epoch + 28*86400)
	profiles := apps.BuildProfiles(train.Flows, campus.Epoch, apps.NewClassifier())
	var sweep []Config
	for _, iv := range []int64{60, 300, 600, 900, 1200} {
		cfg := DefaultConfig()
		cfg.CoLeaveWindowSeconds, cfg.HistoryDays = iv, 0
		sweep = append(sweep, cfg)
	}
	for _, hd := range []int{1, 3, 5, 7, 10, 13, 15, 18, 20} {
		cfg := DefaultConfig()
		cfg.HistoryDays = hd
		sweep = append(sweep, cfg)
	}
	sweep = append(sweep, DefaultConfig(), DefaultConfig())
	b.Run("trainer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			trainer := NewTrainer(train, profiles)
			for _, cfg := range sweep {
				if _, err := trainer.Train(cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("one-shot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, cfg := range sweep {
				if _, err := Train(train, profiles, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkModelIndex is one θ look-up on the default campus's full-window
// model — two rank look-ups and a binary search in one row — for a
// supported pair, a pair of known users with no entry, and a user the
// model has never seen. None may allocate.
func BenchmarkModelIndex(b *testing.B) {
	campus := synth.DefaultConfig()
	full, _, err := synth.Generate(campus)
	if err != nil {
		b.Fatal(err)
	}
	train, _ := full.SplitAt(campus.Epoch + 28*86400)
	cfg := DefaultConfig()
	cfg.HistoryDays = 0
	m, err := Train(train, apps.BuildProfiles(train.Flows, campus.Epoch, apps.NewClassifier()), cfg)
	if err != nil {
		b.Fatal(err)
	}
	var supported, unsupported Pair
	m.EachPair(func(p PairStat) {
		if p.Supported {
			supported = p.Pair
		}
	})
	users := m.pairs.users
	for i := 1; i < len(users) && unsupported == (Pair{}); i++ {
		if e, c := m.Counts(users[0], users[i]); e+c == 0 {
			unsupported = Pair{users[0], users[i]}
		}
	}
	for _, tc := range []struct {
		name string
		pair Pair
	}{{"supported", supported}, {"unsupported", unsupported}, {"unknown", Pair{supported.A, "nobody"}}} {
		b.Run(tc.name, func(b *testing.B) {
			if _, ok := m.Prob(tc.pair.A, tc.pair.B); ok != (tc.name == "supported") || tc.pair.A == "" {
				b.Fatalf("%v: supported %v", tc.pair, ok)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkTheta += m.Index(tc.pair.A, tc.pair.B)
			}
			if allocs := testing.AllocsPerRun(100, func() { sinkTheta += m.Index(tc.pair.A, tc.pair.B) }); allocs != 0 {
				b.Errorf("Index allocates %v times per call", allocs)
			}
		})
	}
}

var sinkTheta float64
