package synth

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"time"

	"github.com/s3wlan/s3wlan/internal/apps"
	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// Observability of trace generation (stage timing plus output volume).
var (
	obsGenerate = obs.GetHistogram("synth.generate", "Wall time of one synthetic campus generation")
	obsSessions = obs.GetCounter("synth.sessions", "Synthetic sessions generated")
	obsFlows    = obs.GetCounter("synth.flows", "Synthetic flows drawn")
)

// archetypeMixes maps each archetype to its realm mixture (canonical realm
// order: IM, P2P, music, email, video, web). Rows sum to 1.
var archetypeMixes = map[Archetype][apps.NumRealms]float64{
	ArchetypeMessenger:  {0.35, 0.02, 0.10, 0.10, 0.03, 0.40},
	ArchetypeDownloader: {0.03, 0.50, 0.20, 0.02, 0.10, 0.15},
	ArchetypeStreamer:   {0.05, 0.03, 0.15, 0.02, 0.55, 0.20},
	ArchetypeWorker:     {0.10, 0.02, 0.04, 0.35, 0.04, 0.45},
}

// archetypeRates is the mean session demand (bytes/second) per archetype.
var archetypeRates = map[Archetype]float64{
	ArchetypeMessenger:  15e3,
	ArchetypeDownloader: 120e3,
	ArchetypeStreamer:   180e3,
	ArchetypeWorker:     25e3,
}

// realmPorts carries one canonical (proto, server port) per realm used
// when synthesizing flow records; internal/apps classifies them back.
var realmPorts = [apps.NumRealms]struct {
	proto string
	port  int
}{
	{"tcp", 1863}, // IM (MSN)
	{"tcp", 6881}, // P2P (BitTorrent)
	{"tcp", 554},  // music (RTSP)
	{"tcp", 25},   // email (SMTP)
	{"tcp", 1935}, // video (RTMP)
	{"tcp", 443},  // web (HTTPS)
}

// activitySlots lists workday activity start hours (fractional) and their
// selection weights. End times land in the paper's leaving peaks
// (12:00–13:00, 16:00–17:50, 21:00–22:00); start times create throughput
// peaks at 10:00–11:00 and 15:00–16:00.
var activitySlots = []struct {
	hour   float64
	weight float64
}{
	{8.5, 0.15},
	{10.0, 0.30}, // throughput peak
	{13.5, 0.10},
	{15.0, 0.30}, // throughput peak
	{19.5, 0.15},
}

// archetypeSlot biases each archetype toward a preferred activity slot.
// This plants the paper's type-level co-leaving correlation (Table I):
// users with similar application usage share schedule rhythms, so
// same-type users from different groups still co-leave more often than
// cross-type users.
var archetypeSlot = map[Archetype]float64{
	ArchetypeWorker:     8.5,
	ArchetypeMessenger:  10.0,
	ArchetypeStreamer:   15.0,
	ArchetypeDownloader: 19.5,
}

// slotPreferenceProb is the chance a group activity uses the group
// archetype's preferred slot instead of a weighted-random one.
const slotPreferenceProb = 0.8

// activityDurations are the class-like coarse durations (seconds). Coarse
// quantization makes same-slot same-duration activities end together,
// which produces the cross-group type-level co-leavings behind Table I —
// but the number of choices keeps those collisions rare enough that
// cross-group pairs stay below the θ = 0.3 "close relationship" cut,
// leaving the social graph dominated by true group structure.
var activityDurations = []int64{2700, 3600, 4500, 5400, 6300, 7200}

// GroundTruth records the planted structure, letting tests and analyses
// verify that the pipeline recovers it.
type GroundTruth struct {
	// Groups lists each social group's members.
	Groups [][]trace.UserID
	// PrimaryGroup maps a user to their group index (-1 for solo users,
	// -2 for residents).
	PrimaryGroup map[trace.UserID]int
	// SecondaryGroup maps users with a second affiliation to it.
	SecondaryGroup map[trace.UserID]int
	// UserArchetype maps every user to their planted archetype.
	UserArchetype map[trace.UserID]Archetype
	// GroupArchetype maps each group to its dominant archetype.
	GroupArchetype []Archetype
}

// Generate builds a complete synthetic trace. The raw trace's AP
// assignments are produced by replaying arrivals through the LLF policy —
// the "state-of-the-art strategy adopted in enterprise WLANs" that the
// paper's measurement section analyzes.
func Generate(cfg Config) (*trace.Trace, *GroundTruth, error) {
	return generate(cfg, nil, 0)
}

// GenerateProfiles draws what Generate(cfg) draws but keeps no flow: it
// folds each one that starts before cut, as it is drawn, into the returned
// store (day zero at cfg.Epoch), which equals apps.BuildProfiles over the
// training flows of Generate(cfg)'s SplitAt(cut). The trace has no flows.
func GenerateProfiles(cfg Config, cut int64) (*trace.Trace, *apps.ProfileStore, *GroundTruth, error) {
	profiles := apps.NewProfileStore(cfg.Epoch)
	tr, truth, err := generate(cfg, profiles, cut)
	return tr, profiles, truth, err
}

// generate is Generate with train nil, and GenerateProfiles otherwise.
func generate(cfg Config, train *apps.ProfileStore, cut int64) (*trace.Trace, *GroundTruth, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	defer func() { obsGenerate.Observe(time.Since(start)) }()
	rng := rand.New(rand.NewSource(cfg.Seed))

	topo := buildTopology(cfg)
	truth := buildPopulation(cfg, rng)
	intents, flows := scheduleSessions(cfg, rng, topo, truth, train, cut)
	if len(intents) == 0 {
		return nil, nil, fmt.Errorf("synth: configuration produced no sessions")
	}

	assigned, err := assignWithLLF(topo, intents)
	if err != nil {
		return nil, nil, fmt.Errorf("synth: LLF assignment: %w", err)
	}
	obsSessions.Add(int64(len(assigned)))
	tr := &trace.Trace{Topology: topo, Sessions: assigned, Flows: flows}
	tr.SortSessions()
	return tr, truth, nil
}

func buildTopology(cfg Config) trace.Topology {
	topo := trace.Topology{APs: make([]trace.AP, 0, cfg.Buildings*cfg.APsPerBuilding)}
	for b := 0; b < cfg.Buildings; b++ {
		building := fmt.Sprintf("bldg-%02d", b)
		ctl := trace.ControllerID(fmt.Sprintf("ctl-%02d", b))
		for a := 0; a < cfg.APsPerBuilding; a++ {
			topo.APs = append(topo.APs, trace.AP{
				ID:          trace.APID(fmt.Sprintf("ap-%02d-%02d", b, a)),
				Controller:  ctl,
				Building:    building,
				CapacityBps: cfg.APCapacityBps,
			})
		}
	}
	return topo
}

func buildPopulation(cfg Config, rng *rand.Rand) *GroundTruth {
	truth := &GroundTruth{
		PrimaryGroup:   make(map[trace.UserID]int),
		SecondaryGroup: make(map[trace.UserID]int),
		UserArchetype:  make(map[trace.UserID]Archetype),
	}
	users := make([]trace.UserID, cfg.Users)
	for i := range users {
		users[i] = trace.UserID(fmt.Sprintf("user-%04d", i))
	}
	nSolo := int(float64(cfg.Users) * cfg.SoloFraction)
	nResident := int(float64(cfg.Users) * cfg.ResidentFraction)
	grouped := users[:cfg.Users-nSolo-nResident]
	solo := users[cfg.Users-nSolo-nResident : cfg.Users-nResident]
	residents := users[cfg.Users-nResident:]

	// Partition grouped users into groups with random sizes.
	for i := 0; i < len(grouped); {
		size := cfg.GroupSizeMin
		if cfg.GroupSizeMax > cfg.GroupSizeMin {
			size += rng.Intn(cfg.GroupSizeMax - cfg.GroupSizeMin + 1)
		}
		if i+size > len(grouped) {
			size = len(grouped) - i
		}
		gi := len(truth.Groups)
		members := append([]trace.UserID(nil), grouped[i:i+size]...)
		truth.Groups = append(truth.Groups, members)
		// Groups are archetype-homogeneous with ~8% dissenters: this
		// plants the paper's Table I correlation between usage type and
		// co-leaving.
		arch := Archetype(1 + rng.Intn(NumArchetypes))
		truth.GroupArchetype = append(truth.GroupArchetype, arch)
		for _, u := range members {
			truth.PrimaryGroup[u] = gi
			a := arch
			if rng.Float64() < 0.08 {
				a = Archetype(1 + rng.Intn(NumArchetypes))
			}
			truth.UserArchetype[u] = a
		}
		i += size
	}

	// Secondary affiliations.
	if len(truth.Groups) > 1 {
		for _, u := range grouped {
			if rng.Float64() < cfg.SecondaryGroupProb {
				gi := rng.Intn(len(truth.Groups))
				if gi == truth.PrimaryGroup[u] {
					gi = (gi + 1) % len(truth.Groups)
				}
				truth.SecondaryGroup[u] = gi
				truth.Groups[gi] = append(truth.Groups[gi], u)
			}
		}
	}

	for _, u := range solo {
		truth.PrimaryGroup[u] = -1
		truth.UserArchetype[u] = Archetype(1 + rng.Intn(NumArchetypes))
	}
	for _, u := range residents {
		truth.PrimaryGroup[u] = -2
		truth.UserArchetype[u] = Archetype(1 + rng.Intn(NumArchetypes))
	}
	return truth
}

// scheduleSessions produces session intents (controller decided, AP left
// to the LLF replay) in draw order. With train nil it returns their flows by
// (Start, User); otherwise it folds each day's flows that start before cut
// into train, reuses the day's buffer and returns no flows.
func scheduleSessions(cfg Config, rng *rand.Rand, topo trace.Topology,
	truth *GroundTruth, train *apps.ProfileStore, cut int64) ([]trace.Session, []trace.Flow) {

	controllers := topo.Controllers()

	// Deterministic user ordering: map iteration order would otherwise
	// randomize both rng consumption and output order across runs. From
	// here on a user is a rank in this order, and per-user state a slice.
	allUsers := make([]trace.UserID, 0, len(truth.UserArchetype))
	for u := range truth.UserArchetype {
		allUsers = append(allUsers, u)
	}
	slices.Sort(allUsers)

	// Per-user stable personality: a demand multiplier and a personal
	// application mixture (the archetype mix perturbed per realm). The
	// personal mixture gives each usage cluster genuine width, which the
	// gap statistic (Fig. 7) needs to stop at the true k.
	rate := make([]float64, len(allUsers)) // mean demand, bytes/second
	userMix := make([][apps.NumRealms]float64, len(allUsers))
	var soloUsers, residentUsers []int
	for i, u := range allUsers {
		arch := truth.UserArchetype[u]
		rate[i] = archetypeRates[arch] * (0.6 + rng.Float64()*0.8) // × 0.6..1.4
		personal := &userMix[i]
		var total float64
		for r, w := range archetypeMixes[arch] {
			// Additive isotropic perturbation: keeps the within-cluster
			// scatter round, which the gap statistic's stopping rule
			// assumes. Clamped away from zero to stay a valid share.
			v := max(w+rng.NormFloat64()*0.055, 0.005)
			personal[r] = v
			total += v
		}
		for r := range personal {
			personal[r] /= total
		}
		switch truth.PrimaryGroup[u] {
		case -1:
			soloUsers = append(soloUsers, i)
		case -2:
			residentUsers = append(residentUsers, i)
		}
	}
	residentHome := make([]int, len(allUsers))
	for _, i := range residentUsers {
		residentHome[i] = rng.Intn(cfg.Buildings)
	}

	homeBuilding := make([]int, len(truth.Groups))
	members := make([][]int, len(truth.Groups))
	memberships := 0
	for gi, g := range truth.Groups {
		homeBuilding[gi] = rng.Intn(cfg.Buildings)
		members[gi] = make([]int, len(g))
		for k, u := range g {
			members[gi][k], _ = slices.BinarySearch(allUsers, u)
		}
		memberships += len(g)
	}

	// Sessions are sized by what the days can schedule (short only if solo
	// Poisson draws outrun the absences); flows — up to 24 a session, 14 on
	// average — are collected per day and gathered once, sorted, not sized
	// 1.7× over.
	perDay := memberships*cfg.ActivitiesPerDay + len(residentUsers) +
		int(math.Ceil(float64(len(soloUsers))*min(cfg.SoloSessionsPerDay, 101))) // poissonish stops at 101
	sessions := make([]trace.Session, 0, cfg.Days*perDay)
	dayFlows := make([]emittedFlow, 0, 24*perDay) // outgrown only by extra solo draws
	flowsOfDay := make([][]emittedFlow, 0, cfg.Days)

	moodRng := rand.New(new(moodSource)) // reseeded by every dayMood

	emit := func(i int, ctl trace.ControllerID, start, end int64) {
		if end <= start {
			return
		}
		u := allUsers[i]
		// Session-level demand is heavy-tailed (lognormal, σ = 0.8): what a
		// user actually pulls in one sitting varies several-fold around
		// their personal mean. Controllers only know the mean, so any
		// load-based policy works from a noisy belief — the regime the
		// paper's enterprise WLAN operates in. E[lognormal(−σ²/2, σ)] = 1
		// keeps the personal mean calibrated.
		const sessionSigma = 0.8
		noise := math.Exp(rng.NormFloat64()*sessionSigma - sessionSigma*sessionSigma/2)
		bytes := int64(rate[i] * noise * float64(end-start))
		if bytes <= 0 {
			bytes = 1
		}
		sessions = append(sessions, trace.Session{
			User:         u,
			Controller:   ctl,
			ConnectAt:    start,
			DisconnectAt: end,
			Bytes:        bytes,
		})
		mood := dayMood(moodRng, cfg.Seed, u, trace.DayIndex(cfg.Epoch, start))
		mix := userMix[i]
		for r := range mix {
			mix[r] *= mood[r]
		}
		dayFlows = emitFlows(dayFlows, rng, int32(i), mix, start, end, bytes)
	}

	for day := 0; day < cfg.Days; day++ {
		dayStart := cfg.Epoch + int64(day)*86400
		weekend := day%7 >= 5
		activityScale := 1.0
		if weekend {
			activityScale = cfg.WeekendActivity
		}

		// Group activities.
		for gi, group := range members {
			for act := 0; act < cfg.ActivitiesPerDay; act++ {
				if weekend && rng.Float64() > activityScale {
					continue
				}
				slot := pickSlot(rng)
				if rng.Float64() < slotPreferenceProb {
					slot = archetypeSlot[truth.GroupArchetype[gi]]
				}
				start := dayStart + int64(slot*3600)
				duration := activityDurations[rng.Intn(len(activityDurations))]
				end := start + duration

				b := homeBuilding[gi]
				if rng.Float64() > cfg.HomeBuildingProb {
					b = rng.Intn(cfg.Buildings)
				}
				ctl := controllers[b]

				for _, i := range group {
					if rng.Float64() > cfg.AttendanceProb {
						continue
					}
					uStart := start + rng.Int63n(2*cfg.ArrivalJitterSeconds+1) - cfg.ArrivalJitterSeconds
					var uEnd int64
					if rng.Float64() < cfg.CoLeaveProb {
						uEnd = end + rng.Int63n(2*cfg.CoLeaveJitterSeconds+1) - cfg.CoLeaveJitterSeconds
					} else {
						// Independent leaver: departs up to ±35 minutes
						// around the end.
						uEnd = end + rng.Int63n(4200) - 2100
					}
					emit(i, ctl, uStart, uEnd)
				}
			}
		}

		// Resident long-stay sessions: the persistent base load. Each
		// resident works one long shift in their home building on
		// workdays (reduced presence on weekends); departures are
		// independent, spread over the evening.
		for _, i := range residentUsers {
			if weekend && rng.Float64() > activityScale {
				continue
			}
			start := dayStart + 8*3600 + rng.Int63n(5400) // 08:00–09:30
			stay := int64(6+rng.Intn(5)) * 3600           // 6–10 hours
			stay += rng.Int63n(1800)
			emit(i, controllers[residentHome[i]], start, start+stay)
		}

		// Solo background sessions.
		for _, i := range soloUsers {
			n := poissonish(rng, cfg.SoloSessionsPerDay*activityScale)
			for s := 0; s < n; s++ {
				slot := pickSlot(rng)
				start := dayStart + int64(slot*3600) + rng.Int63n(3600)
				duration := int64(20+rng.Intn(101)) * 60 // 20–120 minutes
				ctl := controllers[rng.Intn(len(controllers))]
				emit(i, ctl, start, start+duration)
			}
		}
		obsFlows.Add(int64(len(dayFlows)))
		if train == nil {
			flowsOfDay = append(flowsOfDay, slices.Clone(dayFlows))
		} else {
			for _, f := range dayFlows {
				if f.start < cut { // SplitAt's predicate
					train.Add(allUsers[f.rank], f.start, apps.Realms()[f.realm], f.bytes)
				}
			}
		}
		dayFlows = dayFlows[:0]
	}
	if train != nil {
		return sessions, nil
	}
	return sessions, sortFlows(flowsOfDay, allUsers)
}

// An emittedFlow is a flow as emitFlows draws it, with its user as a rank in
// the sorted users and its protocol and server port as a realm: 32 bytes and
// no pointers, so a campus's flows cost no strings until sortFlows gathers
// them. SrcPort fits 16 bits: synth draws it from 49152–65151.
type emittedFlow struct {
	start, end, bytes int64
	rank              int32
	srcPort           uint16
	realm             uint8
}

// flow is f as a trace.Flow; users holds the users by rank.
func (f *emittedFlow) flow(users []trace.UserID) trace.Flow {
	realm := realmPorts[f.realm]
	return trace.Flow{User: users[f.rank], Start: f.start, End: f.end, Proto: realm.proto,
		SrcPort: int(f.srcPort), DstPort: realm.port, Bytes: f.bytes}
}

// A flowKey stands for a flow in sortFlows: its Start, then its user's rank
// above placeBits and its emission place below. 16 bytes, no pointers.
type flowKey struct {
	start int64
	ref   uint64
}

// Config.Validate holds Users below 1<<rankBits; 2⁴⁰ flows exceed memory.
const placeBits, rankBits = 40, 24

// compareFlowKeys has the sign of comparing the flows by (Start, User) on
// every pair, so slices.SortFunc makes the same swaps on keys as on flows
// and ties keep the order the pinned digests record. Comparing places too,
// or a stable or radix sort, would reorder ties.
func compareFlowKeys(a, b flowKey) int {
	if c := cmp.Compare(a.start, b.start); c != 0 {
		return c
	}
	return cmp.Compare(a.ref>>placeBits, b.ref>>placeBits)
}

// sortFlows returns the flows of days, joined, in the order slices.SortFunc
// by (Start, User) gives them; users holds their users, sorted, so a rank
// orders as its user does. It sorts keys, then builds each flow once into
// an exactly sized result, allocated first so the collection it may start
// marks while pointer-free keys move.
func sortFlows(days [][]emittedFlow, users []trace.UserID) []trace.Flow {
	n := 0
	for _, day := range days {
		n += len(day)
	}
	flows := make([]trace.Flow, n)
	keys := make([]flowKey, 0, n)
	ends := make([]int, len(days)) // ends[d]: flows of days 0..d
	for d, day := range days {
		for i := range day {
			keys = append(keys, flowKey{day[i].start, uint64(day[i].rank)<<placeBits | uint64(len(keys))})
		}
		ends[d] = len(keys)
	}
	slices.SortFunc(keys, compareFlowKeys)
	for k, key := range keys {
		p := int(key.ref & (1<<placeBits - 1))
		d, _ := slices.BinarySearch(ends, p+1) // the first day ending after p
		flows[k] = days[d][p-ends[d]+len(days[d])].flow(users)
	}
	return flows
}

// dayMood returns the per-(user, day) multiplicative activity emphasis: a
// lognormal per-realm factor that makes any single day a noisy estimate of
// the user's long-term profile. This drives the paper's Fig. 6 behaviour —
// the NMI between today's profile and aggregated history keeps improving
// for a week or two before it plateaus. rng is reseeded from a hash of
// (seed, user, day), so a mood is the same whenever it is drawn; rng's
// moodSource makes that reseeding as cheap as the six draws that follow.
func dayMood(rng *rand.Rand, seed int64, u trace.UserID, day int) [apps.NumRealms]float64 {
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(day))
	h.Write(buf[:])
	h.Write([]byte(u))
	rng.Seed(int64(h.Sum64()))
	var m [apps.NumRealms]float64
	for i := range m {
		m[i] = math.Exp(rng.NormFloat64() * 0.7)
	}
	return m
}

// emitFlows splits a session's volume into per-realm flows per the user's
// day-modulated mixture (with mild session-level noise), appended to out as
// the flows of the user of rank rank.
func emitFlows(out []emittedFlow, rng *rand.Rand, rank int32, mix [apps.NumRealms]float64,
	start, end, bytes int64) []emittedFlow {
	// Perturb and renormalize the mixture.
	var noisy [apps.NumRealms]float64
	var total float64
	for i, w := range mix {
		noisy[i] = w * (0.7 + rng.Float64()*0.6)
		total += noisy[i]
	}
	// Each realm's volume is split into a few flows spread across the
	// session, so per-sub-period traffic varies realistically (Fig. 3
	// measures exactly this application dynamic).
	duration := end - start
	chunks := min(max(int(duration/1800), 1), 4)
	for i := range noisy {
		share := noisy[i] / total
		vol := int64(share * float64(bytes))
		if vol <= 0 {
			continue
		}
		span := duration / int64(chunks)
		remaining := vol
		for c := 0; c < chunks; c++ {
			// Flows tile the session: each covers its chunk slot with a
			// small start jitter, so traffic is continuous but the
			// per-sub-period volume still varies.
			cStart := start + int64(c)*span
			fStart := cStart
			if span > 8 {
				fStart = cStart + rng.Int63n(span/4)
			}
			fEnd := cStart + span
			if c == chunks-1 || fEnd > end {
				fEnd = end
			}
			fEnd = max(fEnd, fStart+1)
			fVol := remaining / int64(chunks-c)
			// Mildly uneven chunk volumes create the within-hour variance.
			if chunks-c > 1 && fVol > 1 {
				fVol = min(int64(float64(fVol)*(0.75+rng.Float64()*0.5)), remaining)
			}
			if fVol <= 0 {
				continue
			}
			remaining -= fVol
			out = append(out, emittedFlow{start: fStart, end: fEnd, bytes: fVol, rank: rank,
				srcPort: uint16(49152 + rng.Intn(16000)), realm: uint8(i)})
		}
	}
	return out
}

func pickSlot(rng *rand.Rand) float64 {
	var totalW float64
	for _, s := range activitySlots {
		totalW += s.weight
	}
	r := rng.Float64() * totalW
	for _, s := range activitySlots {
		r -= s.weight
		if r <= 0 {
			return s.hour
		}
	}
	return activitySlots[len(activitySlots)-1].hour
}

// poissonish draws a small non-negative count with the given mean using
// Knuth's method (means here are ≤ ~4, so this is cheap).
func poissonish(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 100 {
			return k
		}
	}
}

// assignWithLLF replays the session intents through the LLF policy to fix
// each session's AP, mirroring how the real controllers assigned users in
// the paper's collected trace.
func assignWithLLF(topo trace.Topology, intents []trace.Session) ([]trace.Session, error) {
	tr := &trace.Trace{Topology: topo, Sessions: intents}
	res, err := wlan.Simulate(tr, wlan.Config{
		SelectorFor: func(trace.ControllerID, []trace.AP) wlan.Selector {
			return baseline.LLF{}
		},
	})
	if err != nil {
		return nil, err
	}
	out := intents[:0] // the assignments hold copies: the intents' storage is free
	for _, c := range res.Controllers() {
		for _, a := range res.Domains[c].Assigned {
			s := a.Session
			s.AP = a.AP
			out = append(out, s)
		}
	}
	return out, nil
}
