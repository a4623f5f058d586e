package s3wlan_test

import (
	"fmt"
	"log"
	"sort"
	"time"

	s3wlan "github.com/s3wlan/s3wlan"
	"github.com/s3wlan/s3wlan/internal/protocol"
)

// Example demonstrates the full S³ workflow: generate (or load) a trace,
// learn sociality from history, and place live traffic with the S³ policy.
func Example() {
	cfg := s3wlan.DefaultCampusConfig()
	cfg.Users = 80
	cfg.Buildings = 2
	cfg.APsPerBuilding = 2
	cfg.Days = 8

	tr, _, err := s3wlan.GenerateCampus(cfg)
	if err != nil {
		log.Fatal(err)
	}
	train, test := tr.SplitAt(cfg.Epoch + 6*86400)

	model, err := s3wlan.TrainModel(train, cfg.Epoch, s3wlan.DefaultSocietyConfig())
	if err != nil {
		log.Fatal(err)
	}
	selector, err := s3wlan.NewSelector(model, s3wlan.DefaultSelectorConfig())
	if err != nil {
		log.Fatal(err)
	}
	res, err := s3wlan.Simulate(test, s3wlan.SimConfig{
		SelectorFor: func(s3wlan.ControllerID, []s3wlan.AP) s3wlan.Policy {
			return selector
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("policy:", res.Policy)
	fmt.Println("domains:", len(res.Controllers()))
	// Output:
	// policy: S3
	// domains: 2
}

// ExampleBalanceIndex shows the Chiu–Jain balance index on a load vector.
func ExampleBalanceIndex() {
	even, _ := s3wlan.BalanceIndex([]float64{10, 10, 10, 10})
	skewed, _ := s3wlan.BalanceIndex([]float64{40, 0, 0, 0})
	fmt.Printf("even: %.2f skewed: %.2f\n", even, skewed)
	// Output:
	// even: 1.00 skewed: 0.25
}

// ExampleNormalizedBalanceIndex maps the index onto [0, 1].
func ExampleNormalizedBalanceIndex() {
	v, _ := s3wlan.NormalizedBalanceIndex([]float64{40, 0, 0, 0})
	fmt.Printf("%.2f\n", v)
	// Output:
	// 0.00
}

// ExampleNewLiveLearner shows the live learner observing an association
// lifecycle and scoring the pair afterwards.
func ExampleNewLiveLearner() {
	cfg := s3wlan.DefaultSocietyConfig()
	cfg.MinEncounters = 1
	learner := s3wlan.NewLiveLearner(cfg)

	// Two users share an AP for an hour and leave together.
	learner.Connect("alice", "ap-1", 0)
	learner.Connect("bob", "ap-1", 60)
	if err := learner.Disconnect("alice", "ap-1", 3600); err != nil {
		log.Fatal(err)
	}
	if err := learner.Disconnect("bob", "ap-1", 3630); err != nil {
		log.Fatal(err)
	}

	model := learner.Model()
	fmt.Printf("θ(alice, bob) = %.1f\n", model.Index("alice", "bob"))
	// Output:
	// θ(alice, bob) = 1.0
}

// Example_quickstart generates a small campus, learns sociality from its
// first eleven days and compares S³ against LLF on the last three (the
// paper's protocol, scaled down).
func Example_quickstart() {
	cfg := s3wlan.DefaultCampusConfig()
	cfg.Users = 200
	cfg.Buildings = 4
	cfg.APsPerBuilding = 3
	cfg.Days = 14

	tr, truth, err := s3wlan.GenerateCampus(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d sessions from %d users in %d social groups\n",
		len(tr.Sessions), len(tr.Users()), len(truth.Groups))
	train, test := tr.SplitAt(cfg.Epoch + 11*86400)

	model, err := s3wlan.TrainModel(train, cfg.Epoch, s3wlan.DefaultSocietyConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("learned %d close pair relationships across %d usage types\n",
		model.NumPairs(), model.K())
	selector, err := s3wlan.NewSelector(model, s3wlan.DefaultSelectorConfig())
	if err != nil {
		log.Fatal(err)
	}

	// meanBalance replays the test days under policy and averages the
	// normalized balance index over every domain's active samples.
	meanBalance := func(policy s3wlan.Policy) float64 {
		res, err := s3wlan.Simulate(test, s3wlan.SimConfig{
			SelectorFor: func(s3wlan.ControllerID, []s3wlan.AP) s3wlan.Policy {
				return policy
			},
			BatchWindowSeconds:        60,
			LoadReportIntervalSeconds: 300,
		})
		if err != nil {
			log.Fatal(err)
		}
		var sum float64
		var n int
		for _, c := range res.Controllers() {
			series, err := res.LoadSeries(c)
			if err != nil {
				log.Fatal(err)
			}
			for _, v := range series.ActiveValues() {
				sum += v
				n++
			}
		}
		return sum / float64(n)
	}
	s3, llf := meanBalance(selector), meanBalance(s3wlan.LLF{})
	fmt.Printf("S3  mean normalized balance index: %.4f\n", s3)
	fmt.Printf("LLF mean normalized balance index: %.4f\n", llf)
	fmt.Printf("balancing gain: %+.1f%%\n", (s3-llf)/llf*100)
	// Output:
	// generated 4012 sessions from 200 users in 14 social groups
	// learned 4922 close pair relationships across 4 usage types
	// S3  mean normalized balance index: 0.4561
	// LLF mean normalized balance index: 0.4274
	// balancing gain: +6.7%
}

// Example_prototype is the paper's small-scale prototype: an S³
// controller over loopback TCP, two AP agents, and the members of one
// planted social group associating and sending traffic. S³ spreads
// them over the APs, so their co-leaving drops every AP's load evenly.
func Example_prototype() {
	cfg := s3wlan.DefaultCampusConfig()
	cfg.Users = 100
	cfg.Buildings = 2
	cfg.APsPerBuilding = 2
	cfg.Days = 10
	history, truth, err := s3wlan.GenerateCampus(cfg)
	if err != nil {
		log.Fatal(err)
	}
	model, err := s3wlan.TrainModel(history, cfg.Epoch, s3wlan.DefaultSocietyConfig())
	if err != nil {
		log.Fatal(err)
	}
	selector, err := s3wlan.NewSelector(model, s3wlan.DefaultSelectorConfig())
	if err != nil {
		log.Fatal(err)
	}
	ctl, err := s3wlan.NewController(selector)
	if err != nil {
		log.Fatal(err)
	}
	addr, err := ctl.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ctl.Close()

	const timeout = 5 * time.Second
	for _, ap := range []s3wlan.APID{"office-ap-1", "office-ap-2"} {
		agent, err := protocol.DialAP(addr, ap, 10e6, timeout)
		if err != nil {
			log.Fatal(err)
		}
		defer agent.Close()
	}

	group := truth.Groups[0]
	group = group[:min(len(group), 4)]
	fmt.Printf("associating %d members of one social group\n", len(group))
	perAP := map[s3wlan.APID]int{}
	for _, u := range group {
		st, err := protocol.DialStation(addr, u, timeout)
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		ap, err := st.Associate(100e3)
		if err != nil {
			log.Fatal(err)
		}
		perAP[ap]++
		fmt.Printf("  %s -> %s\n", u, ap)
		if err := st.SendTraffic(2 << 20); err != nil {
			log.Fatal(err)
		}
	}

	aps := make([]s3wlan.APID, 0, len(perAP))
	for ap := range perAP {
		aps = append(aps, ap)
	}
	sort.Slice(aps, func(i, j int) bool { return aps[i] < aps[j] })
	fmt.Println("group dispersal per AP:")
	for _, ap := range aps {
		fmt.Printf("  %s: %d members\n", ap, perAP[ap])
	}
	// Output:
	// associating 4 members of one social group
	//   user-0000 -> office-ap-1
	//   user-0001 -> office-ap-2
	//   user-0002 -> office-ap-1
	//   user-0003 -> office-ap-2
	// group dispersal per AP:
	//   office-ap-1: 2 members
	//   office-ap-2: 2 members
}
