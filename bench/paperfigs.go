package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"github.com/s3wlan/s3wlan/internal/apps"
	"github.com/s3wlan/s3wlan/internal/experiments"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/synth"
)

func init() {
	register(workload{
		name: "paperfigs",
		why: "the offline pipeline researchers run (Fig 10, 11, 12 and the baseline panel, one worker): " +
			"synth, apps, cluster, society.Train, core.SelectBatch, wlan/eventsim, metrics; none of the live stack",
		setup: setupPaperfigs,
	})
}

const (
	// paperSecondsPerCampus is the calibrated time the four artifacts
	// take on one default campus; the campus count is the run length
	// divided by it.
	paperSecondsPerCampus = 4.0
	// Fig 12's overall S³-over-LLF gain: EXPERIMENTS.md reports
	// 19.6 % ± 2.9 % over five campuses; over sixty generated campuses
	// single ones ranged 9.2–27.1 %, with S³ behind LLF in at most two
	// of a campus's ten controller domains (EXPERIMENTS.md's "all 10" is
	// its seed 1).
	paperGainMin, paperGainMax = 5.0, 35.0
	paperDomainsAhead          = 0.7
)

var simSessions = obs.GetCounter("wlan.sessions")

type paperfigs struct {
	data  []*experiments.Data
	fig12 []*experiments.Fig12Result
	base  []*experiments.AblationBaselinesResult
	// per-artifact wall time, summed over campuses
	fig10S, fig11S, fig12S, baseS float64
	placed, failedArtifacts       int
	tiny                          bool
}

func setupPaperfigs(e *env) (world, error) {
	campuses := int(e.seconds/paperSecondsPerCampus + 0.5)
	if campuses < 1 || e.tiny {
		campuses = 1
	}
	w := &paperfigs{tiny: e.tiny}
	for i := 0; i < campuses; i++ {
		campus := synth.DefaultConfig()
		campus.Seed = e.seed*1000 + int64(i)
		trainDays := 28
		if e.tiny {
			campus.Users, campus.Buildings, campus.Days = 150, 3, 12
			trainDays = 9
		}
		d, err := experiments.Prepare(campus, trainDays)
		if err != nil {
			return nil, err
		}
		// One worker: two workers on two cores make the wall time depend
		// on how the scheduler interleaves them (3.4–4.6 s vs 5.0–5.4 s).
		d.Workers = 1
		w.data = append(w.data, d)
	}
	return w, nil
}

// attempted is every session the simulator placed plus every artifact
// that failed (known once the run is over).
func (w *paperfigs) attempted() int { return w.placed + w.failedArtifacts }

func (w *paperfigs) run(m *measure) {
	before := simSessions.Value()
	stamp := func(into *float64, start time.Time) { *into += time.Since(start).Seconds() }
	for _, d := range w.data {
		var intervals []int64
		var history []int
		if w.tiny {
			intervals, history = []int64{300}, []int{5}
		}
		t := time.Now()
		if _, err := experiments.Fig10(d, intervals, nil); err != nil {
			m.fail("fig10 seed %d: %v", d.Campus.Seed, err)
		}
		stamp(&w.fig10S, t)
		t = time.Now()
		if _, err := experiments.Fig11(d, history, nil); err != nil {
			m.fail("fig11 seed %d: %v", d.Campus.Seed, err)
		}
		stamp(&w.fig11S, t)
		t = time.Now()
		f12, err := experiments.Fig12(d)
		if err != nil {
			m.fail("fig12 seed %d: %v", d.Campus.Seed, err)
		}
		w.fig12 = append(w.fig12, f12)
		stamp(&w.fig12S, t)
		t = time.Now()
		base, err := experiments.AblationBaselines(d)
		if err != nil {
			m.fail("baselines seed %d: %v", d.Campus.Seed, err)
		}
		w.base = append(w.base, base)
		stamp(&w.baseS, t)
	}
	// Here a decision is one session placed by the simulator.
	m.decisions = int(simSessions.Value() - before)
	w.placed, w.failedArtifacts = m.decisions, m.failed
	var results []float64
	for i := range w.fig12 {
		if w.fig12[i] != nil && w.base[i] != nil {
			results = append(results, w.fig12[i].GainPercent, w.base[i].S3Mean)
			results = append(results, w.base[i].Means...)
		}
	}
	m.hash = hashFloats(results)
}

// hashFloats folds results into the determinism witness of a workload
// that makes no assignments over the wire.
func hashFloats(vals []float64) uint64 {
	h := fnv.New64a()
	for _, v := range vals {
		fmt.Fprintf(h, "%.12g;", v)
	}
	return h.Sum64()
}

// check: S³ ahead of LLF in at least paperDomainsAhead of each campus's
// controller domains, and the overall gain inside the band.
func (w *paperfigs) check() error {
	for i, f := range w.fig12 {
		if f == nil {
			continue // already counted as a failed artifact
		}
		seed := w.data[i].Campus.Seed
		ahead := 0
		for _, dc := range f.Domains {
			if dc.MeanS3 > dc.MeanLLF {
				ahead++
			}
		}
		if float64(ahead) < paperDomainsAhead*float64(len(f.Domains)) {
			return fmt.Errorf("campus %d: S3 ahead of LLF in only %d of %d domains", seed, ahead, len(f.Domains))
		}
		if !w.tiny && (f.GainPercent < paperGainMin || f.GainPercent > paperGainMax) {
			return fmt.Errorf("campus %d: Fig 12 gain %.1f %% outside [%v, %v]",
				seed, f.GainPercent, paperGainMin, paperGainMax)
		}
	}
	return nil
}

func (w *paperfigs) close() error { return nil }

func (w *paperfigs) layers(r *report, ph *phase, _ *spanStats) error {
	r.set("experiments.fig10_s", w.fig10S)
	r.set("experiments.fig11_s", w.fig11S)
	r.set("experiments.fig12_s", w.fig12S)
	r.set("experiments.baselines_s", w.baseS)
	d := w.data[0]
	t := time.Now()
	apps.BuildProfiles(d.Train.Flows, d.Campus.Epoch, apps.NewClassifier())
	r.set("apps.profiles_ms", float64(time.Since(t))/1e6)
	return nil
}
