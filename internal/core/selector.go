package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

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
	obsBatches       = obs.GetCounter("core.batch.calls", "Group placements via Algorithm 1 (PlaceBatch invocations)")
	obsBatchUsers    = obs.GetCounter("core.batch.users", "Users placed through batch placements")
	obsCliques       = obs.GetCounter("core.batch.cliques", "Cliques extracted across batch placements")
	obsBeamCands     = obs.GetCounter("core.beam.candidates", "Candidate distributions scored by the beam search")
	obsExhaustive    = obs.GetCounter("core.beam.exhaustive_cliques", "Cliques small enough for exhaustive distribution enumeration")
	obsBatchTime     = obs.GetHistogram("core.batch.place", "Latency of one batch placement (Algorithm 1)")
)

// SocialIndex supplies the social relation index θ(u,v) between two users.
// *society.Model satisfies this interface.
type SocialIndex interface {
	Index(u, v trace.UserID) float64
}

// FriendIndex extends SocialIndex with a precomputed close-friend list:
// CloseFriends(u) returns, sorted and read-only, exactly the users v
// with θ(u,v) > FriendThreshold(). The incremental engine
// (society/incremental) satisfies it from the θ-graph it already
// maintains. A selector whose EdgeThreshold matches FriendThreshold
// computes friend-load buckets by looking the requester's friends up on
// each candidate AP instead of evaluating Index against every user the
// AP holds — O(friends) per AP however many users are resident.
type FriendIndex interface {
	SocialIndex
	CloseFriends(u trace.UserID) []trace.UserID
	FriendThreshold() float64
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
// groups, Algorithm 1).
type Selector struct {
	social SocialIndex
	// friends is non-nil when social also satisfies FriendIndex at the
	// selector's own edge threshold — the precondition for the
	// friend-lookup fast path to rank identically to the Index scan.
	friends FriendIndex
	cfg     SelectorConfig
}

var (
	_ wlan.Selector      = (*Selector)(nil)
	_ wlan.BatchSelector = (*Selector)(nil)
)

// NewSelector builds an S³ selector over a trained sociality model.
// When the index also satisfies FriendIndex and its threshold matches
// the selector's EdgeThreshold, Select uses the precomputed close-friend
// lists instead of rescanning every AP's users with Index.
func NewSelector(social SocialIndex, cfg SelectorConfig) (*Selector, error) {
	if social == nil {
		return nil, errors.New("core: nil social index")
	}
	s := &Selector{social: social, cfg: cfg.withDefaults()}
	if fi, ok := social.(FriendIndex); ok && fi.FriendThreshold() == s.cfg.EdgeThreshold {
		s.friends = fi
	}
	return s, nil
}

// Name implements wlan.Selector.
func (s *Selector) Name() string { return "S3" }

// ErrNoAPs is returned when Select is called with no candidates.
var ErrNoAPs = errors.New("core: no candidate APs")

// cost returns C(AP) = Σ_{w∈S(AP)} θ(u,w) over the AP's users with a
// *close* social relationship to u (θ above the edge threshold, the
// paper's 0.3 cut for recognizing real relationships), or +Inf when the
// bandwidth constraint Σw(u) ≤ W(i) would be violated. Sub-threshold θ —
// mostly the dense α·T type prior every profiled pair carries — is noise
// for placement: counting it would turn C into a user-count proxy and
// override the load-aware LLF tie-break the pseudocode prescribes.
func (s *Selector) cost(u trace.UserID, demand float64, ap wlan.APView, members []trace.UserID) float64 {
	if !ap.HasCapacityFor(demand) {
		return math.Inf(1)
	}
	var c float64
	for _, w := range members {
		if theta := s.social.Index(u, w); theta > s.cfg.EdgeThreshold {
			c += theta
		}
	}
	return c
}

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
	// leastLoaded — the least-loaded AP overall for the two fallbacks.
	// Replacement is strict (cand.less / apLess), so ties resolve to the
	// earliest AP exactly as the former slice-then-scan ranking did.
	bestIdx, feasIdx := -1, -1
	var bestRank rankedAP
	var closeFriends []trace.UserID // one list for the whole decision
	if s.friends != nil {
		closeFriends = s.friends.CloseFriends(req.User)
	}
	for i := range aps {
		ap := &aps[i]
		if !ap.HasCapacityFor(req.DemandBps) {
			continue
		}
		if feasIdx < 0 || apLess(ap, &aps[feasIdx]) {
			feasIdx = i
		}
		if ap.LoadBps > guard {
			continue
		}
		if bestIdx >= 0 && bestRank.friends == 0 && !apLess(ap, bestRank.ap) {
			// Friend buckets are never negative, so nothing outranks a
			// friend-free candidate that LLF prefers too: skip the lookup.
			continue
		}
		cand := rankedAP{ap: ap, friends: s.friendLoadBuckets(req, closeFriends, ap)}
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
	return leastLoaded(aps), nil
}

// friendLoadBuckets measures how much co-leaving load already sits on the
// AP from the requester's perspective: the summed believed demand of the
// AP's users with a close (θ > threshold) relationship to the requester,
// quantized in units of the requester's own demand. Quantizing keeps the
// comparison meaningful — differences smaller than one user's demand are
// noise and must not override the LLF tie-break. When the caller supplies
// no per-user demands each friend counts as one requester-demand unit,
// reducing to a friend count. closeFriends is the requester's
// CloseFriends list when the selector has a FriendIndex.
func (s *Selector) friendLoadBuckets(req wlan.Request, closeFriends []trace.UserID, ap *wlan.APView) int {
	unit := req.DemandBps
	if unit <= 0 {
		unit = 1
	}
	if s.friends != nil {
		// Fast path: CloseFriends lists exactly the θ > threshold partners,
		// sorted, and never the requester (the θ-graph has no self-edges),
		// so summing their demands on the AP in list order matches the
		// Index scan below term for term.
		return int(math.Floor(ap.SumDemands(closeFriends, unit) / unit))
	}
	var friendLoad float64
	users, demands := ap.Members()
	for i, w := range users {
		if s.social.Index(req.User, w) <= s.cfg.EdgeThreshold {
			continue
		}
		if i < len(demands) {
			friendLoad += demands[i]
		} else {
			friendLoad += unit
		}
	}
	return int(math.Floor(friendLoad / unit))
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
	return apLess(a.ap, b.ap)
}

func apLess(a, b *wlan.APView) bool {
	if a.LoadBps != b.LoadBps {
		return a.LoadBps < b.LoadBps
	}
	if a.NumUsers != b.NumUsers {
		return a.NumUsers < b.NumUsers
	}
	return a.ID < b.ID
}

func leastLoaded(aps []wlan.APView) trace.APID {
	best := &aps[0]
	for i := range aps[1:] {
		if ap := &aps[i+1]; apLess(ap, best) {
			best = ap
		}
	}
	return best.ID
}

// SelectBatch implements Algorithm 1 for a group of simultaneous
// arrivals:
//
//  1. Build the graph G over the batch users with edges where
//     θ(u,v) > EdgeThreshold.
//  2. Repeatedly extract a maximum clique (ties: largest edge-weight
//     sum).
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

	demands := make(map[trace.UserID]float64, len(reqs))
	users := make([]trace.UserID, 0, len(reqs))
	for _, r := range reqs {
		if _, dup := demands[r.User]; dup {
			return nil, fmt.Errorf("core: duplicate user %q in batch", r.User)
		}
		demands[r.User] = r.DemandBps
		users = append(users, r.User)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })

	g := socialgraph.FromThreshold(users, s.cfg.EdgeThreshold, s.social.Index)
	cover := socialgraph.ExtractCliqueCover(g)

	// Projected AP state, updated as cliques are placed: the views carry
	// the projected load, members the projected user lists.
	state := make([]wlan.APView, len(aps))
	copy(state, aps)
	members := make([][]trace.UserID, len(aps))
	for i := range aps {
		members[i], _ = aps[i].Members()
	}

	obsCliques.Add(int64(len(cover)))
	out := make(map[trace.UserID]trace.APID, len(users))
	for _, clique := range cover {
		assignment, err := s.placeClique(clique, demands, state, members)
		if err != nil {
			return nil, err
		}
		for u, apIdx := range assignment {
			out[u] = state[apIdx].ID
			state[apIdx].LoadBps += demands[u]
			members[apIdx] = append(members[apIdx], u)
		}
	}
	return out, nil
}

// beamCandidate is a partial distribution of a clique's members to APs.
type beamCandidate struct {
	assign []int   // assign[i] = AP index of clique member i
	cost   float64 // accumulated ΣC increment
	used   map[int]int
}

// exhaustiveLimit caps the candidate-distribution count for which
// placeClique enumerates the full solution space (the paper's "search the
// solution space of distribution users"); larger cliques use the beam.
const exhaustiveLimit = 4096

// placeClique searches distributions of the clique's members to APs.
// Members of a clique are spread over distinct APs whenever the domain
// has enough APs; otherwise AP reuse is minimized. Small cliques are
// solved exhaustively; large ones by beam search over the lowest-ΣC
// prefixes.
func (s *Selector) placeClique(clique []trace.UserID, demands map[trace.UserID]float64,
	state []wlan.APView, users [][]trace.UserID) (map[trace.UserID]int, error) {

	// Order members by demand (desc) so the beam places heavy users
	// first; deterministic tie-break by ID.
	members := append([]trace.UserID(nil), clique...)
	sort.Slice(members, func(i, j int) bool {
		di, dj := demands[members[i]], demands[members[j]]
		if di != dj {
			return di > dj
		}
		return members[i] < members[j]
	})

	maxPerAP := (len(members) + len(state) - 1) / len(state)

	// Exhaustive when the space is small: len(state)^len(members)
	// candidates bounded by exhaustiveLimit. The beam search prunes to
	// BeamWidth per level otherwise.
	beamWidth := s.cfg.BeamWidth
	if pow := intPow(len(state), len(members)); pow > 0 && pow <= exhaustiveLimit {
		beamWidth = pow
		obsExhaustive.Inc()
	}

	// One batched counter update per clique: candidates generated across
	// all beam levels, accumulated locally to keep the loop atomic-free.
	var candsGenerated int64
	defer func() { obsBeamCands.Add(candsGenerated) }()

	beam := []beamCandidate{{assign: nil, cost: 0, used: map[int]int{}}}
	for mi, u := range members {
		var next []beamCandidate
		for _, cand := range beam {
			for apIdx, ap := range state {
				if cand.used[apIdx] >= maxPerAP {
					continue // keep clique members dispersed
				}
				// Project the AP's state after this candidate's earlier
				// placements.
				projected, on := s.projectView(ap, users[apIdx], cand, members[:mi], demands, apIdx)
				c := s.cost(u, demands[u], projected, on)
				if math.IsInf(c, 1) {
					// Infeasible: heavily penalized but not discarded —
					// every user must land somewhere.
					c = 1e18
				}
				nc := beamCandidate{
					assign: append(append([]int(nil), cand.assign...), apIdx),
					cost:   cand.cost + c,
					used:   copyCounts(cand.used),
				}
				nc.used[apIdx]++
				next = append(next, nc)
			}
		}
		candsGenerated += int64(len(next))
		sortCandidates(next)
		if len(next) > beamWidth {
			next = next[:beamWidth]
		}
		beam = next
	}
	if len(beam) == 0 {
		return nil, fmt.Errorf("core: no distribution found for clique of %d", len(clique))
	}

	// Keep the top TopFraction by cost — tie-inclusive, so equal-cost
	// distributions (the common no-social-ties case) all reach the
	// balance tie-break — then pick the best projected balance index.
	keep := int(math.Ceil(float64(len(beam)) * s.cfg.TopFraction))
	if keep < 1 {
		keep = 1
	}
	for keep < len(beam) && beam[keep].cost == beam[keep-1].cost {
		keep++
	}
	finalists := beam[:keep]
	bestIdx, bestBeta := 0, -1.0
	for i, cand := range finalists {
		beta := s.projectedBalance(cand, members, demands, state)
		if beta > bestBeta {
			bestIdx, bestBeta = i, beta
		}
	}
	chosen := finalists[bestIdx]
	out := make(map[trace.UserID]int, len(members))
	for i, u := range members {
		out[u] = chosen.assign[i]
	}
	return out, nil
}

// projectView returns ap and its user list with the candidate's earlier
// same-AP placements folded in, so cost sees intra-clique θ too.
func (s *Selector) projectView(ap wlan.APView, users []trace.UserID, cand beamCandidate,
	placed []trace.UserID, demands map[trace.UserID]float64, apIdx int) (wlan.APView, []trace.UserID) {
	if cand.used[apIdx] == 0 {
		return ap, users
	}
	users = append([]trace.UserID(nil), users...)
	for i, u := range placed {
		if cand.assign[i] == apIdx {
			users = append(users, u)
			ap.LoadBps += demands[u]
		}
	}
	return ap, users
}

// projectedBalance computes the normalized balance index of the AP load
// vector after applying the candidate distribution.
func (s *Selector) projectedBalance(cand beamCandidate,
	members []trace.UserID, demands map[trace.UserID]float64,
	state []wlan.APView) float64 {
	loads := make([]float64, len(state))
	for i, ap := range state {
		loads[i] = ap.LoadBps
	}
	for i, u := range members {
		loads[cand.assign[i]] += demands[u]
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

func copyCounts(m map[int]int) map[int]int {
	out := make(map[int]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func sortCandidates(cands []beamCandidate) {
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		// Deterministic order among equal costs.
		a, b := cands[i].assign, cands[j].assign
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}
