package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// A/A mode: two sets of K runs of every workload on this same binary,
// alternating (A1 B1 A2 B2 …) so drift in the host lands on both sets.
// Run i of either set uses seed+i, as the acceptance driver's sets do.
// For each end-to-end metric it prints both medians with quartiles, the
// spread of each set (interquartile distance over median) and how much
// worse B's median is than A's, against the metric's bound; then the
// traced run's exact counts, twice, which must be identical.

// quartiles returns the first quartile, median and third quartile by
// the exclusive method (Python's statistics.quantiles(xs, n=4)).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(1), at(2), at(3)
}

// worse is how far b is on the wrong side of a, as a share of a.
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runSelf runs this binary once and parses its result line.
func runSelf(workload string, seed int64, seconds float64, traced bool) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", tr)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res runResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return &res, nil
}

func runAA(todo []workload, k int, seed int64, seconds float64, stdout, stderr io.Writer) int {
	host := readHost()
	fmt.Fprintf(stdout, "# A/A: two alternating sets of %d runs per workload, seeds %d–%d, %g s schedules\n\n",
		k, seed, seed+int64(k)-1, seconds)
	fmt.Fprintf(stdout, "Printed by `bash bench/run.sh --aa %d` (see README.md, \"Steadiness on a noisy host\").\n\n", k)
	fmt.Fprintf(stdout, "host: nproc=%d GOMAXPROCS=%d pinned=%v %s load1=%.2f\n\n", host.NProc, host.GoMaxProcs, host.Pinned, host.GoVersion, host.Load1)
	breaches := 0
	for _, w := range todo {
		sets := [2]map[string][]float64{{}, {}}
		// exact are traced-run counts that must repeat to the digit for
		// equal seeds.
		exact := map[string][2]float64{}
		for i := 0; i < k; i++ {
			for s := 0; s < 2; s++ {
				res, err := runSelf(w.name, seed+int64(i), seconds, false)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %v\n", err)
					return 1
				}
				if !res.Correct || res.Failed != 0 {
					fmt.Fprintf(stderr, "bench: %s seed %d: %d of %d operations failed\n", w.name, seed+int64(i), res.Failed, res.Attempted)
					breaches++
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		for s := 0; s < 2; s++ {
			res, err := runSelf(w.name, seed, seconds, true)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			for _, name := range exactMetrics {
				v := exact[name]
				v[s] = res.Metrics[name].Value
				exact[name] = v
			}
		}
		fmt.Fprintf(stdout, "## %s\n\n", w.name)
		fmt.Fprintln(stdout, "| metric | unit | A median [q1, q3] | B median [q1, q3] | spread A | spread B | B worse by | bound | |")
		fmt.Fprintln(stdout, "|---|---|---|---|---|---|---|---|---|")
		for _, d := range endToEnd {
			a1, a2, a3 := quartiles(sets[0][d.name])
			b1, b2, b3 := quartiles(sets[1][d.name])
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			diff := worse(d, a2, b2)
			// A breach is B's median worse than A's by more than the bound,
			// or — from ten runs a set, where quartiles mean something, and
			// not for setup_s, whose spread the acceptance driver ignores
			// too — a spread beyond the bound. Below ten runs a wide spread
			// is only marked.
			verdict := "ok"
			wide := d.name != "setup_s" && (spreadA > d.bound || spreadB > d.bound)
			switch {
			case diff > d.bound || (wide && k >= 10):
				verdict = "BREACH"
				breaches++
			case wide:
				verdict = "wide"
			}
			fmt.Fprintf(stdout, "| %s | %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %.1f%% | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
				d.name, d.unit, a2, a1, a3, b2, b1, b3, 100*spreadA, 100*spreadB, 100*diff, 100*d.bound, verdict)
		}
		fmt.Fprintf(stdout, "\nTraced run, seed %d, twice — counts that must repeat exactly:\n\n", seed)
		for _, name := range exactMetrics {
			v := exact[name]
			verdict := "identical"
			if v[0] != v[1] {
				verdict = "DIFFER"
				breaches++
			}
			fmt.Fprintf(stdout, "- `%s`: %.6g, %.6g — %s\n", name, v[0], v[1], verdict)
		}
		fmt.Fprintln(stdout)
	}
	if breaches > 0 {
		fmt.Fprintf(stdout, "%d breach(es)\n", breaches)
		return 1
	}
	fmt.Fprintln(stdout, "no breach")
	return 0
}
