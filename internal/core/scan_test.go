package core

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/s3wlan/s3wlan/internal/domain"
	"github.com/s3wlan/s3wlan/internal/metrics"
	"github.com/s3wlan/s3wlan/internal/socialgraph"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// scanBatch is Algorithm 1 the slow way, as the reference for
// SelectBatch: every AP's sorted membership is materialised, C(AP) is
// Index against every member — residents first, then the batch's own
// placements in the order they were made — and each beam candidate
// recomputes everything from scratch on copies. It shares no code with
// the selector beyond the clique cover and the balance index.
type scanBatch struct {
	idx      SocialIndex
	cfg      SelectorConfig
	demands  map[trace.UserID]float64
	loads    []float64        // projected, per AP
	on       [][]trace.UserID // per AP: residents, then placements in order
	placed   [][]trace.UserID // per AP: placements only
	cost     float64          // ΣC of the chosen distributions
	assign   map[trace.UserID]trace.APID
	capacity []float64
}

type scanCandidate struct {
	assign []int
	cost   float64
}

func runScanBatch(idx SocialIndex, cfg SelectorConfig, reqs []wlan.Request, aps []wlan.APView) *scanBatch {
	b := &scanBatch{idx: idx, cfg: cfg.withDefaults(), demands: map[trace.UserID]float64{}, assign: map[trace.UserID]trace.APID{}}
	var users []trace.UserID
	for _, r := range reqs {
		b.demands[r.User] = r.DemandBps
		users = append(users, r.User)
	}
	slices.Sort(users)
	for _, ap := range aps {
		members, _ := ap.Members()
		b.on = append(b.on, members)
		b.loads = append(b.loads, ap.LoadBps)
		b.capacity = append(b.capacity, ap.CapacityBps)
	}
	b.placed = make([][]trace.UserID, len(aps))
	g := socialgraph.FromThreshold(users, b.cfg.EdgeThreshold, idx.Index)
	for _, clique := range socialgraph.ExtractCliqueCover(g) {
		members := slices.Clone(clique)
		sort.Slice(members, func(i, j int) bool {
			di, dj := b.demands[members[i]], b.demands[members[j]]
			if di != dj {
				return di > dj
			}
			return members[i] < members[j]
		})
		chosen := b.place(members)
		b.cost += chosen.cost
		for i, u := range members {
			a := chosen.assign[i]
			b.assign[u] = aps[a].ID
			b.loads[a] += b.demands[u]
			b.on[a] = append(b.on[a], u)
			b.placed[a] = append(b.placed[a], u)
		}
	}
	return b
}

// costOn is C(AP) for u on an AP holding members at the given load.
func (b *scanBatch) costOn(u trace.UserID, capacity, load float64, members []trace.UserID) float64 {
	if !domain.Admits(capacity, load, b.demands[u]) {
		return 1e18
	}
	var c float64
	for _, w := range members {
		if theta := b.idx.Index(u, w); theta > b.cfg.EdgeThreshold {
			c += theta
		}
	}
	return c
}

func (b *scanBatch) place(members []trace.UserID) scanCandidate {
	nAPs := len(b.loads)
	maxPerAP := (len(members) + nAPs - 1) / nAPs
	beamWidth := b.cfg.BeamWidth
	if pow := math.Pow(float64(nAPs), float64(len(members))); pow <= exhaustiveLimit {
		beamWidth = int(pow)
	}
	beam := []scanCandidate{{}}
	for mi, u := range members {
		var next []scanCandidate
		for _, cand := range beam {
			for a := 0; a < nAPs; a++ {
				// The AP as this candidate's earlier placements left it.
				load, on, used := b.loads[a], slices.Clone(b.on[a]), 0
				for k, w := range members[:mi] {
					if cand.assign[k] == a {
						load += b.demands[w]
						on = append(on, w)
						used++
					}
				}
				if used >= maxPerAP {
					continue
				}
				next = append(next, scanCandidate{
					assign: append(slices.Clone(cand.assign), a),
					cost:   cand.cost + b.costOn(u, b.capacity[a], load, on),
				})
			}
		}
		sort.SliceStable(next, func(i, j int) bool {
			if next[i].cost != next[j].cost {
				return next[i].cost < next[j].cost
			}
			return slices.Compare(next[i].assign, next[j].assign) < 0
		})
		beam = next[:min(len(next), beamWidth)]
	}
	keep := max(1, int(math.Ceil(float64(len(beam))*topFraction)))
	for keep < len(beam) && beam[keep].cost == beam[keep-1].cost {
		keep++
	}
	best, bestBeta := 0, -1.0
	for f, cand := range beam[:keep] {
		loads := slices.Clone(b.loads)
		for k, u := range members {
			loads[cand.assign[k]] += b.demands[u]
		}
		beta, err := metrics.NormalizedBalanceIndex(loads)
		if err != nil {
			beta = 0
		}
		if beta > bestBeta {
			best, bestBeta = f, beta
		}
	}
	return beam[best]
}

// randomBatchDomain commits a random population — a quarter of it with
// two sessions stacked on one AP — to a fresh domain of nAPs APs, some
// tight enough to turn a placement infeasible, and returns its views.
func randomBatchDomain(t *testing.T, rng *rand.Rand, residents []trace.UserID, nAPs int) []wlan.APView {
	t.Helper()
	dom := domain.New(domain.Config{})
	for a := 0; a < nAPs; a++ {
		if err := dom.AddAP(trace.APID(fmt.Sprintf("ap%d", a)), 100+rng.Float64()*900); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range residents {
		ap := trace.APID(fmt.Sprintf("ap%d", rng.Intn(nAPs)))
		for s := 0; s < 1+rng.Intn(4)/3; s++ {
			if _, err := dom.Commit([]domain.Placement{{User: u, AP: ap, DemandBps: 1 + rng.Float64()*40}}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	var buf domain.ViewBuf
	dom.ViewsInto("", &buf)
	return buf.Views()
}

// TestSelectBatchRowsMatchScan: on random domains — stacked same-user
// sessions, a batch member already resident, cliques larger than the AP
// count, θ and demands that no float represents exactly — SelectBatch
// over listed friends and over tabulated rows reproduces the scan's
// assignment, per-AP placement order, projected loads and summed cost
// ΣC, the floats bit for bit.
func TestSelectBatchRowsMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	users := testUsers(40)
	oversized := 0
	for trial := 0; trial < 300; trial++ {
		idx := randomIndex(rng, users, []float64{0.1, 0.4, 0.9}[trial%3])
		listed, tabulated := selectorPair(t, idx)
		perm := rng.Perm(len(users))
		nAPs := 2 + rng.Intn(5)
		views := randomBatchDomain(t, rng, pick(users, perm[:25]), nAPs)
		// The batch overlaps the residents: perm[20:25] are both.
		var reqs []wlan.Request
		for _, u := range pick(users, perm[20:20+2+rng.Intn(12)]) {
			reqs = append(reqs, wlan.Request{User: u, DemandBps: 1 + rng.Float64()*60})
		}

		want := runScanBatch(idx, listed.cfg, reqs, views)
		for a := range want.placed {
			if len(want.placed[a]) > 1 {
				oversized++
			}
		}
		for name, sel := range map[string]*Selector{"listed": listed, "tabulated": tabulated} {
			got := new(placer)
			if err := got.placeBatch(sel, reqs, views); err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			for a := range views {
				var placed []trace.UserID
				for _, i := range got.placed[a] {
					placed = append(placed, got.batch[i].User)
				}
				if !slices.Equal(placed, want.placed[a]) {
					t.Fatalf("trial %d %s: %s receives %v, the scan places %v", trial, name, views[a].ID, placed, want.placed[a])
				}
				if math.Float64bits(got.state[a].LoadBps) != math.Float64bits(want.loads[a]) {
					t.Fatalf("trial %d %s: %s projected load %v, the scan's %v", trial, name, views[a].ID, got.state[a].LoadBps, want.loads[a])
				}
			}
			if math.Float64bits(got.cost) != math.Float64bits(want.cost) {
				t.Fatalf("trial %d %s: ΣC = %v, the scan's %v", trial, name, got.cost, want.cost)
			}
			m, err := sel.SelectBatch(reqs, views)
			if err != nil || !maps.Equal(m, want.assign) {
				t.Fatalf("trial %d %s: SelectBatch = %v (%v), the scan assigns %v", trial, name, m, err, want.assign)
			}
		}
	}
	if oversized < 50 {
		t.Errorf("only %d APs received two batch members at once: cliques larger than the AP count are not covered", oversized)
	}
}

func pick(users []trace.UserID, at []int) []trace.UserID {
	out := make([]trace.UserID, len(at))
	for i, k := range at {
		out[i] = users[k]
	}
	return out
}

// TestSelectBatchOversizedCliqueDeterministic: a 6-clique over 4 APs puts
// two members on two of them. Their demands (0.1, 0.2, … — no float
// holds them) make the projected load depend on the order they are
// added in; fifty runs must agree on the assignment, on each AP's
// placement order and on every projected load to the last bit. The
// placements used to be applied by ranging over a map.
func TestSelectBatchOversizedCliqueDeterministic(t *testing.T) {
	idx := mapIndex{}
	var reqs []wlan.Request
	clique := testUsers(6)
	for i, u := range clique {
		reqs = append(reqs, wlan.Request{User: u, DemandBps: 0.1 * float64(i+1)})
		for _, v := range clique[i+1:] {
			idx[pair(u, v)] = 0.31 + 0.07*float64(i)
		}
	}
	var aps []wlan.APView
	for a := 0; a < 4; a++ {
		aps = append(aps, wlan.APView{ID: trace.APID(fmt.Sprintf("ap%d", a)), CapacityBps: 100, LoadBps: 0.3 * float64(a)})
	}
	sel, err := NewSelector(idx, SelectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	first := new(placer)
	if err := first.placeBatch(sel, reqs, aps); err != nil {
		t.Fatal(err)
	}
	shared := 0
	for a := range aps {
		if len(first.placed[a]) > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no AP received two members: the clique was not oversized")
	}
	for run := 1; run < 50; run++ {
		again := new(placer)
		if err := again.placeBatch(sel, reqs, aps); err != nil {
			t.Fatal(err)
		}
		for a := range aps {
			if !slices.Equal(again.placed[a], first.placed[a]) {
				t.Fatalf("run %d: %s receives members %v, first run %v", run, aps[a].ID, again.placed[a], first.placed[a])
			}
			if math.Float64bits(again.state[a].LoadBps) != math.Float64bits(first.state[a].LoadBps) {
				t.Fatalf("run %d: %s projected load %v, first run %v", run, aps[a].ID, again.state[a].LoadBps, first.state[a].LoadBps)
			}
		}
	}
}

// TestSelectBatchConcurrent: eight goroutines place the fixture's batches
// through one Selector at once — a Selector is safe for concurrent use —
// and each gets, batch for batch, what a lone caller gets: a placer
// borrowed from the pool is nobody else's. Under -race it also proves
// that.
func TestSelectBatchConcurrent(t *testing.T) {
	sel, users, views := trainedBatchFixture(t)
	const batches = 40
	want := make([]map[trace.UserID]trace.APID, batches)
	for i := range want {
		reqs := make([]wlan.Request, 8)
		eightCoArrivals(reqs, users, i)
		var err error
		if want[i], err = sel.SelectBatch(reqs, views); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			reqs := make([]wlan.Request, 8)
			for k := 0; k < batches; k++ {
				i := (k + 5*g) % batches
				eightCoArrivals(reqs, users, i)
				if got, err := sel.SelectBatch(reqs, views); err != nil || !maps.Equal(got, want[i]) {
					t.Errorf("goroutine %d, batch %d: SelectBatch = %v (%v), alone it gives %v", g, i, got, err, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
