package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"github.com/s3wlan/s3wlan/internal/domain"
	"github.com/s3wlan/s3wlan/internal/metrics"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/socialgraph"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// Observability of the selector hot path. Counters are atomic and
// always on; the histogram is observed once per batch placement, not
// per candidate, so the beam search itself stays allocation-free.
var (
	obsSelects       = obs.GetCounter("core.select.calls", "Single-user Select invocations of the S³ policy")
	obsGuardFallback = obs.GetCounter("core.select.guard_fallbacks", "Selections where the balance guard overrode the social choice")
	obsBatches       = obs.GetCounter("core.batch.calls", "Group placements via Algorithm 1 (SelectBatch invocations)")
	obsBatchUsers    = obs.GetCounter("core.batch.users", "Users placed through batch placements")
	obsCliques       = obs.GetCounter("core.batch.cliques", "Cliques extracted across batch placements")
	obsBeamCands     = obs.GetCounter("core.beam.candidates", "Candidate distributions scored by the beam search")
	obsExhaustive    = obs.GetCounter("core.beam.exhaustive_cliques", "Cliques small enough for exhaustive distribution enumeration")
	obsBatchTime     = obs.GetHistogram("core.batch.place", "Latency of one batch placement (Algorithm 1)")
)

// SocialIndex supplies the social relation index θ(u,v) between two users.
type SocialIndex interface {
	Index(u, v trace.UserID) float64
}

// FriendIndex extends SocialIndex with a precomputed close-friend list:
// CloseFriends(u) returns, sorted and read-only, exactly the users v
// with θ(u,v) > FriendThreshold(). The incremental engine
// (society/incremental) satisfies it from the θ-graph it already
// maintains. The selector reads a requester's close relations off this
// list and looks them up on each candidate AP — O(friends) per AP
// however many users are resident; it never evaluates Index against an
// AP's membership.
type FriendIndex interface {
	SocialIndex
	CloseFriends(u trace.UserID) []trace.UserID
	FriendThreshold() float64
}

// FriendTabulator is a SocialIndex that can lay out, for any threshold,
// what a FriendIndex serves: users ascending, and for users[i] the row
// friends[start[i]:start[i+1]] — ascending, exactly the v with
// Index(users[i], v) > threshold — with that Index in theta alongside.
// Rank(u) is the i with users[i] == u, at every threshold, and false for
// a user it does not list. *society.Model satisfies it.
type FriendTabulator interface {
	SocialIndex
	CloseFriendRows(threshold float64) (users []trace.UserID, start []int, friends []trace.UserID, theta []float64)
	Rank(u trace.UserID) (int, bool)
}

// friendRows is a FriendTabulator's layout served as a FriendIndex; a
// user's row is found by the tabulator's Rank.
type friendRows struct {
	FriendTabulator
	threshold float64
	start     []int
	friends   []trace.UserID
	theta     []float64
}

func newFriendRows(social FriendTabulator, threshold float64) *friendRows {
	_, start, friends, theta := social.CloseFriendRows(threshold)
	return &friendRows{FriendTabulator: social, threshold: threshold, start: start, friends: friends, theta: theta}
}

func (r *friendRows) FriendThreshold() float64 { return r.threshold }

func (r *friendRows) CloseFriends(u trace.UserID) []trace.UserID {
	if i, ok := r.Rank(u); ok {
		return r.friends[r.start[i]:r.start[i+1]]
	}
	return nil
}

// SelectorConfig tunes the S³ policy.
type SelectorConfig struct {
	// EdgeThreshold is the θ value above which two users are considered
	// to have a close social relationship; the paper uses 0.3.
	EdgeThreshold float64
	// TopFraction is the share of best-cost candidate distributions kept
	// before the balance-index tie-break; the paper's Algorithm 1 keeps
	// the top 30%.
	TopFraction float64
	// BeamWidth bounds the candidate distributions explored per clique.
	// The paper "searches the solution space"; an exhaustive search is
	// exponential, so we beam-search the lowest-ΣC prefixes. Default 64.
	BeamWidth int
	// BalanceGuard bounds how far above the least-loaded AP a socially
	// preferable AP may be and still be chosen: candidates must satisfy
	// load ≤ minLoad + BalanceGuard·(mean domain load + demand). This
	// implements the paper's secondary objective — "prevent the balance
	// index from decreasing too much" — as a hard guard on the online
	// decision. Default 0.5.
	BalanceGuard float64
}

// DefaultSelectorConfig returns the paper's operating point.
func DefaultSelectorConfig() SelectorConfig {
	return SelectorConfig{
		EdgeThreshold: 0.3,
		TopFraction:   0.3,
		BeamWidth:     64,
		BalanceGuard:  0.5,
	}
}

func (c SelectorConfig) withDefaults() SelectorConfig {
	if c.EdgeThreshold <= 0 {
		c.EdgeThreshold = 0.3
	}
	if c.TopFraction <= 0 || c.TopFraction > 1 {
		c.TopFraction = 0.3
	}
	if c.BeamWidth <= 0 {
		c.BeamWidth = 64
	}
	if c.BalanceGuard <= 0 {
		c.BalanceGuard = 0.5
	}
	return c
}

// Selector is the S³ association policy. It implements both
// wlan.Selector (single arrivals) and wlan.BatchSelector (co-arriving
// groups, Algorithm 1). Both decide from the requesters' close-friend
// rows: the paper's cost sums θ over close relations only, so a decision
// costs what those are, not what the APs hold.
type Selector struct {
	friends FriendIndex // at cfg.EdgeThreshold
	cfg     SelectorConfig
}

var (
	_ wlan.Selector      = (*Selector)(nil)
	_ wlan.BatchSelector = (*Selector)(nil)
)

// NewSelector builds an S³ selector over a sociality index that lists
// close friends at the selector's EdgeThreshold: a FriendIndex with that
// threshold (the live engine) is used as it is, a FriendTabulator (a
// trained model) is asked for its rows once, here.
func NewSelector(social SocialIndex, cfg SelectorConfig) (*Selector, error) {
	if social == nil {
		return nil, errors.New("core: nil social index")
	}
	s := &Selector{cfg: cfg.withDefaults()}
	if fi, ok := social.(FriendIndex); ok && fi.FriendThreshold() == s.cfg.EdgeThreshold {
		s.friends = fi
	} else if ft, ok := social.(FriendTabulator); ok {
		s.friends = newFriendRows(ft, s.cfg.EdgeThreshold)
	} else {
		return nil, fmt.Errorf("core: %T lists no close friends at edge threshold %v", social, s.cfg.EdgeThreshold)
	}
	return s, nil
}

// Name implements wlan.Selector.
func (s *Selector) Name() string { return "S3" }

// ErrNoAPs is returned when Select is called with no candidates.
var ErrNoAPs = errors.New("core: no candidate APs")

// Select implements wlan.Selector: pick the feasible AP that minimizes
// the social-cost increment, then fall back to least-loaded-first, per
// the pseudocode's "if S(AP) is empty or there are multiple candidate APs
// to choose, we simply apply LLF". The ranking is lexicographic:
//
//  1. fewest close social relations on the AP (disperse co-leavers),
//  2. least loaded (the paper's secondary balance objective — with equal
//     close-relation counts the θ-strength differences are weak
//     predictors, while the load difference directly moves the balance
//     index, so LLF decides).
//
// When no AP satisfies the bandwidth constraint, S³ degrades to LLF over
// all APs rather than rejecting the user (the controller must serve
// everyone; the overload is recorded by the simulator).
func (s *Selector) Select(req wlan.Request, aps []wlan.APView) (trace.APID, error) {
	if len(aps) == 0 {
		return "", ErrNoAPs
	}
	obsSelects.Inc()
	// The balance guard: social preference may not pick an AP whose load
	// is too far above the domain minimum, or the dispersal would cost
	// more instantaneous imbalance than the co-leaving resilience buys.
	minLoad := math.Inf(1)
	var totalLoad float64
	for _, ap := range aps {
		totalLoad += ap.LoadBps
		if ap.LoadBps < minLoad {
			minLoad = ap.LoadBps
		}
	}
	guard := minLoad + s.cfg.BalanceGuard*(totalLoad/float64(len(aps))+req.DemandBps)

	// Single pass, no candidate slices: track the best guarded candidate
	// (friend buckets are computed only for those that could still
	// outrank it), the least-loaded feasible AP and — implicitly, via
	// domain.LeastLoaded — the least-loaded AP overall for the two
	// fallbacks. Replacement is strict (cand.less / domain.LessLoaded),
	// so ties resolve to the earliest AP exactly as the former
	// slice-then-scan ranking did.
	bestIdx, feasIdx := -1, -1
	var bestRank rankedAP
	closeFriends := s.friends.CloseFriends(req.User) // one list for the whole decision
	for i := range aps {
		ap := &aps[i]
		if !ap.HasCapacityFor(req.DemandBps) {
			continue
		}
		if feasIdx < 0 || domain.LessLoaded(ap, &aps[feasIdx]) {
			feasIdx = i
		}
		if ap.LoadBps > guard {
			continue
		}
		if bestIdx >= 0 && bestRank.friends == 0 && !domain.LessLoaded(ap, bestRank.ap) {
			// Friend buckets are never negative, so nothing outranks a
			// friend-free candidate that LLF prefers too: skip the lookup.
			continue
		}
		cand := rankedAP{ap: ap, friends: friendLoadBuckets(req, closeFriends, ap)}
		if bestIdx < 0 || cand.less(bestRank) {
			bestIdx, bestRank = i, cand
		}
	}
	if bestIdx >= 0 {
		return aps[bestIdx].ID, nil
	}
	// No AP is both feasible and within the guard: fall back to the
	// least-loaded feasible AP, and only overload when nothing can
	// absorb the demand at all.
	obsGuardFallback.Inc()
	if feasIdx >= 0 {
		return aps[feasIdx].ID, nil
	}
	return domain.LeastLoaded(aps), nil
}

// friendLoadBuckets measures how much co-leaving load already sits on the
// AP from the requester's perspective: the summed believed demand of the
// requester's close friends (θ > threshold; sorted, never the requester
// itself) that the AP holds, quantized in units of the requester's own
// demand. Quantizing keeps the comparison meaningful — differences
// smaller than one user's demand are noise and must not override the LLF
// tie-break. A friend whose demand the view does not track counts as one
// requester-demand unit, reducing to a friend count.
func friendLoadBuckets(req wlan.Request, closeFriends []trace.UserID, ap *wlan.APView) int {
	unit := req.DemandBps
	if unit <= 0 {
		unit = 1
	}
	return int(math.Floor(ap.SumDemands(closeFriends, unit) / unit))
}

// rankedAP is an online-selection candidate.
type rankedAP struct {
	ap      *wlan.APView
	friends int
}

// less orders candidates by (friend count, load, users, ID) — the
// lexicographic ranking documented on Select.
func (a rankedAP) less(b rankedAP) bool {
	if a.friends != b.friends {
		return a.friends < b.friends
	}
	return domain.LessLoaded(a.ap, b.ap)
}

// batchMember is one request of a batch with what placing it reads: its
// close-friend row, θ alongside, and its relations inside the batch.
type batchMember struct {
	wlan.Request
	friends []trace.UserID
	theta   []float64 // theta[k] = θ(User, friends[k])
	related []relation
}

// relation is a close friend that arrived in the same batch.
type relation struct {
	member int // index into the batch
	theta  float64
}

// thetas returns θ(u, v) for each of u's close friends: read off a
// tabulated row, asked of the index when it lists friends without θ.
func (s *Selector) thetas(u trace.UserID, friends []trace.UserID) []float64 {
	if r, ok := s.friends.(*friendRows); ok {
		if i, ok := r.Rank(u); ok {
			return r.theta[r.start[i]:r.start[i+1]]
		}
		return nil
	}
	out := make([]float64, len(friends))
	for k, v := range friends {
		out[k] = s.friends.Index(u, v)
	}
	return out
}

// SelectBatch implements Algorithm 1 for a group of simultaneous
// arrivals:
//
//  1. Build the graph G over the batch users with edges where
//     θ(u,v) > EdgeThreshold.
//  2. Repeatedly extract a maximum clique (ties: largest edge-weight
//     sum): a socialgraph.Cover over the batch's indices.
//  3. For each clique, search candidate distributions of its members to
//     APs, rank by ΣᵢC(APᵢ), keep the top TopFraction, and choose the one
//     whose projected load vector has the best balance index.
//  4. Update the (projected) AP states and continue until G is empty.
func (s *Selector) SelectBatch(reqs []wlan.Request, aps []wlan.APView) (map[trace.UserID]trace.APID, error) {
	if len(aps) == 0 {
		return nil, ErrNoAPs
	}
	if len(reqs) == 0 {
		return map[trace.UserID]trace.APID{}, nil
	}
	obsBatches.Inc()
	obsBatchUsers.Add(int64(len(reqs)))
	batchStart := time.Now()
	defer func() { obsBatchTime.Observe(time.Since(batchStart)) }()

	p := placerPool.Get().(*placer)
	defer p.release()
	if err := p.placeBatch(s, reqs, aps); err != nil {
		return nil, err
	}
	out := make(map[trace.UserID]trace.APID, len(reqs))
	for a, members := range p.placed {
		for _, i := range members {
			out[p.batch[i].User] = p.state[a].ID
		}
	}
	return out, nil
}

// placer carries one SelectBatch call's batch, clique cover and projected
// state, and the scratch placeClique works in: borrowed from placerPool
// for the call, so that a batch allocates nothing of its own once the
// buffers have grown, whichever goroutine decides it.
type placer struct {
	cfg     SelectorConfig
	batch   []batchMember // in user order
	related []relation    // the members' related rows, end to end
	cover   socialgraph.Cover
	state   []wlan.APView // LoadBps projected over the cliques placed so far
	placed  [][]int       // per AP: batch members placed there so far, in order
	cost    float64       // ΣC of the distributions chosen so far
	theta   []float64     // per batch member: θ to the member being placed, else 0
	perAP   []float64     // base, cost, load, loads: four rows of len(state)
	used    []int         // per AP: members of the clique a candidate put there
	within  []float64     // per earlier clique member: θ to the one being placed
	beam    [2][]beamCandidate
	assign  [2][]int // backing of the candidates' assign slices, per level parity
}

// placerPool lends out released placers for their buffers: an idle one
// goes at the next collection, concurrent batches each get their own.
var placerPool = sync.Pool{New: func() any { return new(placer) }}

// release returns p to the pool without what it read: the views reach
// into a domain and the batch into the selector's rows.
func (p *placer) release() {
	clear(p.state)
	clear(p.batch)
	placerPool.Put(p)
}

// placeBatch runs Algorithm 1 and leaves its outcome in p: who was put
// on each AP, in order, the projected loads and the summed cost.
func (p *placer) placeBatch(s *Selector, reqs []wlan.Request, aps []wlan.APView) error {
	// The batch in user order. Rows are sorted too, so a member's
	// relations inside the batch are one merge of the two lists, and the
	// cover gets exactly the edges an Index over every pair would give:
	// its vertices are the batch's indices.
	p.cfg, p.cost = s.cfg, 0
	p.batch = slices.Grow(p.batch[:0], len(reqs))[:len(reqs)]
	batch := p.batch
	for i, r := range reqs {
		batch[i] = batchMember{Request: r}
	}
	slices.SortFunc(batch, func(a, b batchMember) int { return cmp.Compare(a.User, b.User) })
	for i := range batch {
		m := &batch[i]
		if i > 0 && m.User == batch[i-1].User {
			return fmt.Errorf("core: duplicate user %q in batch", m.User)
		}
		m.friends = s.friends.CloseFriends(m.User)
		m.theta = s.thetas(m.User, m.friends)
	}
	p.cover.Reset(len(batch))
	p.related = p.related[:0]
	for i := range batch {
		m, at := &batch[i], len(p.related)
		for j, k := 0, 0; j < len(batch) && k < len(m.friends); {
			switch c := cmp.Compare(batch[j].User, m.friends[k]); {
			case c < 0:
				j++
			case c > 0:
				k++
			default:
				p.related = append(p.related, relation{j, m.theta[k]})
				if i < j {
					p.cover.AddEdge(i, j, m.theta[k])
				}
				j++
				k++
			}
		}
		m.related = p.related[at:] // an append that moves p.related leaves this row behind, intact
	}
	cliques := p.cover.Extract()
	obsCliques.Add(int64(cliques))

	p.state = append(p.state[:0], aps...)
	p.placed = slices.Grow(p.placed[:0], len(aps))[:len(aps)]
	for a := range p.placed {
		p.placed[a] = p.placed[a][:0]
	}
	p.theta = slices.Grow(p.theta[:0], len(batch))[:len(batch)]
	clear(p.theta)
	p.perAP = slices.Grow(p.perAP[:0], 4*len(aps))[:4*len(aps)]
	p.used = slices.Grow(p.used[:0], len(aps))[:len(aps)]
	for q := 0; q < cliques; q++ {
		// Heavy users first, so the beam places them while every AP is
		// still open; ties by id (batch order).
		members := p.cover.Clique(q)
		slices.SortFunc(members, func(a, b int) int {
			return cmp.Or(cmp.Compare(batch[b].DemandBps, batch[a].DemandBps), cmp.Compare(a, b))
		})
		// Applied in member order — the order the projection summed in —
		// so two members sharing an AP (a clique larger than the domain)
		// leave the same load and placement order on every run.
		chosen := p.placeClique(members)
		p.cost += chosen.cost
		for k, a := range chosen.assign {
			p.state[a].LoadBps += batch[members[k]].DemandBps
			p.placed[a] = append(p.placed[a], members[k])
		}
	}
	return nil
}

// beamCandidate is a partial distribution of a clique's members to APs.
type beamCandidate struct {
	assign []int   // assign[k] = AP index of clique member k
	cost   float64 // accumulated ΣC increment
}

// exhaustiveLimit caps the candidate-distribution count for which
// placeClique enumerates the full solution space (the paper's "search the
// solution space of distribution users"); larger cliques use the beam.
const exhaustiveLimit = 4096

// placeClique searches distributions of the clique's members (batch
// indices, heaviest first) to APs and returns the chosen one, its assign
// valid until the next call. Members of a clique are spread over
// distinct APs whenever the domain has enough APs; otherwise AP reuse is
// minimized. Small cliques are solved exhaustively; large ones by beam
// search over the lowest-ΣC prefixes.
//
// A member's cost on an AP is C(AP) = Σ θ over its close relations there
// (θ above the edge threshold, the paper's 0.3 cut for recognizing real
// relationships — sub-threshold θ, mostly the dense α·T prior, would
// turn C into a user-count proxy): the residents, then the batch members
// earlier cliques put there, then the candidate's own earlier
// placements — summed in that order, which is the order a scan of the
// AP's sorted membership followed by the batch's placements adds in, so
// every cost is bit-identical to that scan's. Only the last part varies
// between candidates; the rest is computed once per member and AP.
func (p *placer) placeClique(members []int) beamCandidate {
	nAPs := len(p.state)
	base, cost, load := p.perAP[:nAPs], p.perAP[nAPs:2*nAPs], p.perAP[2*nAPs:3*nAPs]
	maxPerAP := (len(members) + nAPs - 1) / nAPs

	// Exhaustive when the space is small: nAPs^len(members) candidates
	// bounded by exhaustiveLimit. The beam search prunes to BeamWidth per
	// level otherwise.
	beamWidth := p.cfg.BeamWidth
	if pow := intPow(nAPs, len(members)); pow > 0 && pow <= exhaustiveLimit {
		beamWidth = pow
		obsExhaustive.Inc()
	}

	// One batched counter update per clique: candidates generated across
	// all beam levels, accumulated locally to keep the loop atomic-free.
	var candsGenerated int64
	var empty [1]beamCandidate // the empty distribution
	beam := empty[:]
	for mi, i := range members {
		m := &p.batch[i]
		for _, r := range m.related {
			p.theta[r.member] = r.theta
		}
		for a := range p.state {
			var c float64
			p.state[a].Intersect(m.friends, 0, func(k int, _ float64) { c += m.theta[k] })
			for _, j := range p.placed[a] {
				c += p.theta[j] // +0 for a stranger leaves c as it is
			}
			base[a] = c
		}
		p.within = p.within[:0]
		for _, j := range members[:mi] {
			p.within = append(p.within, p.theta[j])
		}
		for _, r := range m.related {
			p.theta[r.member] = 0
		}

		next, buf := p.beam[mi%2][:0], p.assign[mi%2][:0]
		if need := len(beam) * nAPs * (mi + 1); cap(buf) < need {
			buf = make([]int, 0, need) // children keep slices of it: never regrown
		}
		if need := len(beam) * nAPs; cap(next) < need {
			next = make([]beamCandidate, 0, need)
		}
		for _, cand := range beam {
			// The AP states after this candidate's earlier placements.
			copy(cost, base)
			for a := range p.state {
				load[a], p.used[a] = p.state[a].LoadBps, 0
			}
			for k, a := range cand.assign {
				cost[a] += p.within[k]
				load[a] += p.batch[members[k]].DemandBps
				p.used[a]++
			}
			for a := range p.state {
				if p.used[a] >= maxPerAP {
					continue // keep clique members dispersed
				}
				c := cost[a]
				if !domain.Admits(p.state[a].CapacityBps, load[a], m.DemandBps) {
					// Infeasible: heavily penalized but not discarded —
					// every user must land somewhere.
					c = 1e18
				}
				at := len(buf)
				buf = append(append(buf, cand.assign...), a)
				next = append(next, beamCandidate{assign: buf[at:len(buf):len(buf)], cost: cand.cost + c})
			}
		}
		candsGenerated += int64(len(next))
		sortCandidates(next)
		p.beam[mi%2], p.assign[mi%2] = next, buf
		beam = next[:min(len(next), beamWidth)]
	}
	obsBeamCands.Add(candsGenerated)

	// Keep the top TopFraction by cost — tie-inclusive, so equal-cost
	// distributions (the common no-social-ties case) all reach the
	// balance tie-break — then pick the best projected balance index.
	keep := max(1, int(math.Ceil(float64(len(beam))*p.cfg.TopFraction)))
	for keep < len(beam) && beam[keep].cost == beam[keep-1].cost {
		keep++
	}
	best, bestBeta := 0, -1.0
	for f, cand := range beam[:keep] {
		if beta := p.projectedBalance(cand, members); beta > bestBeta {
			best, bestBeta = f, beta
		}
	}
	return beam[best]
}

// projectedBalance computes the normalized balance index of the AP load
// vector after applying the candidate distribution.
func (p *placer) projectedBalance(cand beamCandidate, members []int) float64 {
	loads := p.perAP[3*len(p.state):]
	for a := range p.state {
		loads[a] = p.state[a].LoadBps
	}
	for k, a := range cand.assign {
		loads[a] += p.batch[members[k]].DemandBps
	}
	beta, err := metrics.NormalizedBalanceIndex(loads)
	if err != nil {
		return 0
	}
	return beta
}

// intPow returns base^exp, or -1 once the result exceeds exhaustiveLimit
// (the caller only needs to know whether exhaustive enumeration fits).
func intPow(base, exp int) int {
	result := 1
	for i := 0; i < exp; i++ {
		result *= base
		if result < 0 || result > exhaustiveLimit {
			return -1
		}
	}
	return result
}

// sortCandidates orders by cost, then by assignment: no two candidates
// of a level share an assignment, so the order is total.
func sortCandidates(cands []beamCandidate) {
	slices.SortFunc(cands, func(a, b beamCandidate) int {
		if c := cmp.Compare(a.cost, b.cost); c != 0 {
			return c // assignments are compared on a tie only
		}
		return slices.Compare(a.assign, b.assign)
	})
}
