// Onlinelearning: the paper's future-work deployment mode — a controller
// that learns sociality continuously instead of batch re-training. The
// example replays a campus trace as a live event stream through the
// live learner (the incremental engine) and shows its model converging
// to the batch-trained one.
package main

import (
	"fmt"
	"log"
	"sort"

	s3wlan "github.com/s3wlan/s3wlan"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/trace"
)

func main() {
	cfg := s3wlan.DefaultCampusConfig()
	cfg.Users = 200
	cfg.Buildings = 4
	cfg.APsPerBuilding = 3
	cfg.Days = 14
	tr, _, err := s3wlan.GenerateCampus(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Batch model: the reference.
	batch, err := s3wlan.TrainModel(tr, cfg.Epoch, s3wlan.DefaultSocietyConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Live learner: feed the same trace as a stream of connect and
	// disconnect events, in time order.
	learnerCfg := s3wlan.DefaultSocietyConfig()
	learnerCfg.HistoryDays = 0
	learner := s3wlan.NewLiveLearner(learnerCfg)
	learner.SetTypes(batch.Types, batch.TypeMatrix) // types from periodic batch clustering

	type event struct {
		at      int64
		user    trace.UserID
		ap      trace.APID
		connect bool
	}
	events := make([]event, 0, 2*len(tr.Sessions))
	for _, s := range tr.Sessions {
		events = append(events,
			event{at: s.ConnectAt, user: s.User, ap: s.AP, connect: true},
			event{at: s.DisconnectAt, user: s.User, ap: s.AP, connect: false},
		)
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].connect && !events[j].connect // connects first
	})

	days := 0
	for _, ev := range events {
		if d := int((ev.at - cfg.Epoch) / 86400); d > days {
			days = d
			if days%4 == 0 {
				report(learner, batch, days)
			}
		}
		if ev.connect {
			learner.Connect(ev.user, ev.ap, ev.at)
		} else if err := learner.Disconnect(ev.user, ev.ap, ev.at); err != nil {
			log.Fatal(err)
		}
	}
	report(learner, batch, cfg.Days)

	// The converged online model drives the same S³ selector.
	if _, err := s3wlan.NewSelector(learner.Model(), s3wlan.DefaultSelectorConfig()); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nonline model plugged into the S3 selector — no batch retraining needed")
}

// report prints how well the online model agrees with the batch one on
// the batch model's strongest pairs.
func report(learner *s3wlan.LiveLearner, batch *society.Model, day int) {
	online := learner.Model()
	top := batch.TopPairs(50)
	if len(top) == 0 {
		return
	}
	agree := 0
	for _, p := range top {
		// Agreement: the online model also rates the pair as close.
		if online.Index(p.A, p.B) > 0.3 {
			agree++
		}
	}
	fmt.Printf("day %2d: online knows %5d pairs (%4d co-leaving); agrees on %2d/%d of batch's top pairs\n",
		day, len(online.Encounters), len(online.CoLeaves), agree, len(top))
}
