package s3wlan_test

import (
	"fmt"
	"log"

	s3wlan "github.com/s3wlan/s3wlan"
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
