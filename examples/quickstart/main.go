// Quickstart: generate a small campus, learn sociality from four weeks of
// history, and compare S³ against LLF on the following days.
package main

import (
	"fmt"
	"log"

	s3wlan "github.com/s3wlan/s3wlan"
)

func main() {
	// A small campus: 200 users, 4 buildings with 3 APs each, 14 days.
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

	// Train on the first 11 days, test on the last 3 (the paper's
	// protocol, scaled down).
	cut := cfg.Epoch + 11*86400
	train, test := tr.SplitAt(cut)

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

	run := func(name string, policy s3wlan.Policy) float64 {
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
		mean := sum / float64(n)
		fmt.Printf("%-4s mean normalized balance index: %.4f\n", name, mean)
		return mean
	}

	s3 := run("S3", selector)
	llf := run("LLF", s3wlan.LLF{})
	fmt.Printf("balancing gain: %+.1f%%\n", (s3-llf)/llf*100)
}
