package experiments

import (
	"fmt"
	"testing"

	"github.com/s3wlan/s3wlan/internal/core"
	"github.com/s3wlan/s3wlan/internal/society"
)

// TestKnockoutFriendDispersal pins the knockout finding EXPERIMENTS.md
// reports: under the stale view (300 s reports) friend dispersal carries
// S³ — full S³ beats blind S³ (EdgeThreshold 10: nobody has a close
// friend) and LLF on every seed — while under the live view
// (the cells' reportEvery 0) neither knockout moves the mean balance by
// more than a few percent. The campus is smallCampus at 4 and at 8 APs a
// building, 9 training days, seeds 1–5; the means must not depend on the
// worker count. At 8 APs seed 5's reported full − blind margin is thin
// (+0.5 %): the finding holds there, but only just.
func TestKnockoutFriendDispersal(t *testing.T) {
	// The live view's band: the measured spread is −3.0 … +3.1 % (full −
	// blind) and −2.2 … +1.2 % (full − LLF) at 4 APs, −0.3 … +2.4 % and
	// −0.6 … +1.1 % at 8.
	const liveBand = 5.0
	gain := func(full, knock float64) float64 { return (full - knock) / knock * 100 }
	for _, aps := range []int{4, 8} {
		t.Run(fmt.Sprintf("aps=%d", aps), func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				campus := smallCampus()
				campus.APsPerBuilding = aps
				campus.Seed = seed
				d, err := Prepare(campus, 9)
				if err != nil {
					t.Fatal(err)
				}
				model, err := d.trainModel(society.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				blind := core.DefaultSelectorConfig()
				blind.EdgeThreshold = 10
				var cells []cell
				for _, interval := range []int64{300, 0} {
					for _, c := range []cell{s3Cell(model, core.DefaultSelectorConfig()), s3Cell(model, blind), baselineCell(llf)} {
						c.reportEvery = interval
						cells = append(cells, c)
					}
				}
				var means [2][]float64
				for i, workers := range []int{1, 4} {
					d.Workers = workers
					if means[i], err = d.meanBalances("knockout", cells); err != nil {
						t.Fatal(err)
					}
				}
				for i := range means[0] {
					if means[0][i] != means[1][i] {
						t.Errorf("seed %d cell %d: mean %v at 1 worker, %v at 4", seed, i, means[0][i], means[1][i])
					}
				}
				m := means[0]
				reportedBlind, reportedLLF := gain(m[0], m[1]), gain(m[0], m[2])
				liveBlind, liveLLF := gain(m[3], m[4]), gain(m[3], m[5])
				t.Logf("seed %d: reported full−blind %+.1f %%, full−LLF %+.1f %%; live full−blind %+.1f %%, full−LLF %+.1f %%",
					seed, reportedBlind, reportedLLF, liveBlind, liveLLF)
				if reportedBlind <= 0 || reportedLLF <= 0 {
					t.Errorf("seed %d, 300 s reports: full S³ gains %+.1f %% over blind S³ and %+.1f %% over LLF, want both > 0",
						seed, reportedBlind, reportedLLF)
				}
				if liveBlind < -liveBand || liveBlind > liveBand || liveLLF < -liveBand || liveLLF > liveBand {
					t.Errorf("seed %d, live view: full S³ gains %+.1f %% over blind S³ and %+.1f %% over LLF, want both within ±%v %%",
						seed, liveBlind, liveLLF, liveBand)
				}
			}
		})
	}
}
