package society

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"github.com/s3wlan/s3wlan/internal/apps"
	"github.com/s3wlan/s3wlan/internal/cluster"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// obsTrain times whole training runs — one of the two dominant stages
// (with wlan.Simulate) of every experiment cell.
var obsTrain = obs.GetHistogram("society.train",
	"Wall time of one batch sociality-model training run")

// Config holds the sociality-learning parameters studied in the paper's
// evaluation (Figs. 10 and 11).
type Config struct {
	// CoLeaveWindowSeconds is the co-leaving extraction interval. The
	// paper sweeps 1–20 minutes and finds 5 minutes optimal.
	CoLeaveWindowSeconds int64
	// MinEncounterSeconds is the overlap needed for an encounter event.
	MinEncounterSeconds int64
	// MinEncounters is the support threshold below which a pair's P(L|E)
	// estimate is considered noise ("fake social relationships") and
	// dropped.
	MinEncounters int
	// Alpha weighs the type-matrix term: θ = P(L|E) + α·T. The paper
	// sweeps {0.1, 0.3, 0.5} and settles on 0.3.
	Alpha float64
	// HistoryDays limits how much training history is used (0 = all).
	// The paper finds ~15 days sufficient.
	HistoryDays int
	// NumTypes is the number of application-usage clusters (the paper
	// selects 4 via the gap statistic). Set 0 to auto-select with the
	// gap statistic.
	NumTypes int
	// Seed drives clustering randomness.
	Seed int64
}

// DefaultConfig returns the paper's chosen operating point: five-minute
// co-leave window, α = 0.3, 15 days of history, k = 4 types.
func DefaultConfig() Config {
	return Config{
		CoLeaveWindowSeconds: 300,
		MinEncounterSeconds:  600,
		MinEncounters:        2,
		Alpha:                0.3,
		HistoryDays:          15,
		NumTypes:             4,
		Seed:                 1,
	}
}

// Model is a trained sociality model: per-pair counts and co-leaving
// probabilities, per-user types, and the type-pair co-leave matrix. Read
// a pair with Index (θ), Prob or Counts, all of them with NumPairs and
// EachPair. Train and NewModel build one, immutable from then on; the
// zero Model knows no pair and no user. Models trained by one Trainer
// with one clustering share their Types and Centroids, as WithAlpha
// copies share everything but Alpha: read them, never edit them.
type Model struct {
	// Types maps each known user to a cluster label in [0, K).
	Types map[trace.UserID]int
	// TypeMatrix[i][j] is T(type_i, type_j), the mean co-leave
	// probability between members of the two types.
	TypeMatrix [][]float64
	// Centroids are the application-profile centroids per type.
	Centroids [][]float64
	// Alpha is the θ mixing coefficient.
	Alpha float64

	pairs pairTable
}

// K returns the number of types.
func (m *Model) K() int { return len(m.TypeMatrix) }

// Index returns the social relation index θ(u,v) = P(L|E) + α·T. For
// pairs with no encounter history the first term is 0 and only the
// type-matrix prior applies, exactly as the paper prescribes for users
// who "have not encountered each other before". Unknown users (no
// profile) contribute no type prior.
func (m *Model) Index(u, v trace.UserID) float64 {
	t := &m.pairs
	a, okA := t.rank[u]
	b, okB := t.rank[v]
	if !okA || !okB || a == b {
		return 0
	}
	return t.entry(a, b).prob + Prior(m.Alpha, m.TypeMatrix, t.typeOf[a], t.typeOf[b])
}

// Prior is θ's type-matrix term α·T(tu, tv), 0 when the matrix lacks
// either type (a negative type is none). The conversion rounds the
// product before any sum (no fused multiply-add), on every platform to
// the same bits: every θ — a Model's, a live snapshot's, the one that
// admits a pair to a friend list — adds this value.
func Prior(alpha float64, matrix [][]float64, tu, tv int) float64 {
	if k := len(matrix); tu < 0 || tu >= k || tv < 0 || tv >= min(k, len(matrix[tu])) {
		return 0
	}
	return float64(alpha * matrix[tu][tv])
}

// CoLeaveProb is P(L|E) from a pair's counts, and whether the pair has
// the support to have one: below minEncounters, or without an encounter,
// the estimate is noise ("fake social relationships") and θ gets no first
// term. More co-leavings than qualifying encounters can happen when short
// overlaps don't clear MinEncounterSeconds; clamp.
func CoLeaveProb(encounters, coLeaves, minEncounters int) (float64, bool) {
	if encounters <= 0 || encounters < minEncounters {
		return 0, false
	}
	return min(1, float64(coLeaves)/float64(encounters)), true
}

// Prob returns the pair's P(L(u,v) | E(u,v)) and whether it has one.
func (m *Model) Prob(u, v trace.UserID) (float64, bool) {
	e := m.pairs.find(u, v)
	return e.prob, e.supported
}

// Counts returns the pair's raw encounter and co-leave counts.
func (m *Model) Counts(u, v trace.UserID) (encounters, coLeaves int) {
	e := m.pairs.find(u, v)
	return int(e.encounters), int(e.coLeaves)
}

// NumPairs returns the number of supported pairs.
func (m *Model) NumPairs() int { return m.pairs.supported }

// EachPair calls f for every pair with a count or a probability, in
// (A, B) id order.
func (m *Model) EachPair(f func(PairStat)) {
	t := &m.pairs
	for a, u := range t.users {
		for _, e := range t.entries[t.start[a]:t.start[a+1]] {
			f(PairStat{Pair{u, t.users[e.b]}, int(e.encounters), int(e.coLeaves), e.prob, e.supported})
		}
	}
}

// Errors returned by Train.
var (
	ErrNoSessions = errors.New("society: no training sessions")
	ErrNoProfiles = errors.New("society: no user profiles to cluster")
)

// Train learns a sociality model from a training trace. profiles provides
// the per-user application profiles (built from the same training period's
// flows). The training window is truncated to cfg.HistoryDays when set.
// It is NewTrainer(tr, profiles).Train(cfg) on pooled buffers; a caller
// training one trace more than once keeps a Trainer instead.
//
// Train keeps its own counting rather than replaying the trace through
// society/incremental's engine: the extractors count an encounter per
// overlapping session pair, the engine per presence, and the generated
// campuses stack enough same-user/same-AP sessions that an eighth of the
// pairs would tally differently (incremental's
// TestLiveTalliesAgainstBatch) — moving every figure in EXPERIMENTS.md.
// A replay is also three times slower than the two extractors.
func Train(tr *trace.Trace, profiles *apps.ProfileStore, cfg Config) (*Model, error) {
	start := time.Now()
	// A Trainer for one training interns its window only.
	t := newTrainer(densePool.Get().(*dense), tr, profiles, cfg.HistoryDays)
	defer densePool.Put(t.all)
	return t.train(cfg, start)
}

// Trainer is a training trace interned once for many trainings: its
// users (session users and profiled ones) ranked in id order, its APs,
// every session as a visit grouped per AP by connect time and by leaving
// time. Train(cfg) keeps the visits of cfg's window, ranks the window's
// users anew and counts; the clustering, which reads the profiles and
// cfg's NumTypes and Seed only, runs once per distinct pair of them. A
// Trainer is safe for concurrent use.
type Trainer struct {
	all      *dense
	end      int64 // the trace's last disconnect
	tr       *trace.Trace
	profiles *apps.ProfileStore

	mu          sync.Mutex
	clusterings map[Config]*clustering // by the two fields clusterUsers reads
}

// clustering is clusterUsers' result.
type clustering struct {
	once      sync.Once
	types     map[trace.UserID]int
	centroids [][]float64
	err       error
}

// NewTrainer interns tr's sessions and profiles' users for Train.
func NewTrainer(tr *trace.Trace, profiles *apps.ProfileStore) *Trainer {
	return newTrainer(new(dense), tr, profiles, 0)
}

// newTrainer interns into d the sessions of tr's last historyDays (0:
// all) and profiles' users.
func newTrainer(d *dense, tr *trace.Trace, profiles *apps.ProfileStore, historyDays int) *Trainer {
	var also []trace.UserID
	if profiles != nil {
		also = profiles.Users()
	}
	t := &Trainer{tr: tr, profiles: profiles, clusterings: make(map[Config]*clustering)}
	_, t.end = tr.TimeRange()
	t.all = d.intern(tr.Sessions, t.from(historyDays), also)
	return t
}

// Of reports whether t was built from tr and profiles; a nil t was not.
func (t *Trainer) Of(tr *trace.Trace, profiles *apps.ProfileStore) bool {
	return t != nil && t.tr == tr && t.profiles == profiles
}

// from is the earliest connect time a training of historyDays keeps.
func (t *Trainer) from(historyDays int) int64 {
	if historyDays > 0 {
		return t.end - int64(historyDays)*86400
	}
	return math.MinInt64
}

// Train learns the model of cfg from the Trainer's trace and profiles,
// exactly as the package-level Train would.
func (t *Trainer) Train(cfg Config) (*Model, error) { return t.train(cfg, time.Now()) }

func (t *Trainer) train(cfg Config, start time.Time) (*Model, error) {
	if len(t.tr.Sessions) == 0 {
		return nil, ErrNoSessions
	}
	defer func() { obsTrain.Observe(time.Since(start)) }()
	from := t.from(cfg.HistoryDays)
	if !slices.ContainsFunc(t.all.byConnect, func(g []visit) bool { return g[len(g)-1].connect >= from }) {
		return nil, fmt.Errorf("%w after truncating to %d history days",
			ErrNoSessions, cfg.HistoryDays)
	}
	c := t.clustering(cfg)
	if c.err != nil {
		return nil, c.err
	}
	s := densePool.Get().(*dense)
	defer densePool.Put(s)
	users, rank := t.all.window(s, from, c.types)
	events := t.all.events(s, from, cfg.MinEncounterSeconds, cfg.CoLeaveWindowSeconds)

	pairs := 0
	eachPair(events, func(_, _ uint32, _, _ int) { pairs++ })
	m := &Model{Types: c.types, Centroids: c.centroids, Alpha: cfg.Alpha,
		pairs: newPairTable(users, rank, c.types, pairs)}
	// eachPair visits pairs in (A, B) order, and the window's ranks keep
	// it: the entries reach the table sorted, the type sums in the order
	// BuildTypeMatrix adds them.
	sums := newTypeSums(len(c.centroids))
	eachPair(events, func(a, b uint32, encounters, coLeaves int) {
		a, b = s.remap[a], s.remap[b]
		e := pairEntry{b: b, encounters: uint32(encounters), coLeaves: uint32(coLeaves)}
		e.prob, e.supported = CoLeaveProb(encounters, coLeaves, cfg.MinEncounters)
		m.pairs.add(a, e)
		sums.add(m.pairs.typeOf[a], m.pairs.typeOf[b], encounters, coLeaves)
	})
	m.pairs.seal()
	m.TypeMatrix = sums.matrix()
	return m, nil
}

// clustering returns cfg's clustering, computed by the first caller that
// asks for its key; the others wait for it.
func (t *Trainer) clustering(cfg Config) *clustering {
	t.mu.Lock()
	key := Config{NumTypes: cfg.NumTypes, Seed: cfg.Seed}
	c := t.clusterings[key]
	if c == nil {
		c = new(clustering)
		t.clusterings[key] = c
	}
	t.mu.Unlock()
	c.once.Do(func() { c.types, c.centroids, c.err = clusterUsers(t.profiles, cfg) })
	return c
}

// WithAlpha returns a copy of the model that mixes the type prior into θ
// with a different α. The copy shares the receiver's types, matrix,
// centroids and pair table; a Model is read-only, and must stay so while
// copies are in use.
func (m *Model) WithAlpha(alpha float64) *Model {
	c := *m
	c.Alpha = alpha
	return &c
}

// clusterUsers k-means-clusters the users' mean normalized application
// profiles. When cfg.NumTypes is 0 the gap statistic picks k.
func clusterUsers(profiles *apps.ProfileStore, cfg Config) (map[trace.UserID]int, [][]float64, error) {
	if profiles == nil {
		return nil, nil, ErrNoProfiles
	}
	users := profiles.Users()
	ids := make([]trace.UserID, 0, len(users))
	points := make([][]float64, 0, len(users))
	for _, u := range users {
		vec, ok := profiles.MeanNormalized(u)
		if !ok {
			continue
		}
		ids = append(ids, u)
		points = append(points, vec)
	}
	if len(points) == 0 {
		return nil, nil, ErrNoProfiles
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	k := cfg.NumTypes
	if k <= 0 {
		gap, err := cluster.GapStatistic(points, rng, cluster.GapConfig{MaxK: 8})
		if err != nil {
			return nil, nil, fmt.Errorf("society: gap statistic: %w", err)
		}
		k = gap.OptimalK
	}
	k = min(k, len(points))
	res, err := cluster.KMeans(points, k, rng, cluster.Config{})
	if err != nil {
		return nil, nil, fmt.Errorf("society: clustering: %w", err)
	}
	types := make(map[trace.UserID]int, len(ids))
	for i, u := range ids {
		types[u] = res.Labels[i]
	}
	return types, res.Centroids, nil
}

// BuildTypeMatrix estimates T(type_i, type_j): the mean co-leave
// probability over encountered pairs whose members belong to the two
// types. Cells with no supporting pairs are 0.
func BuildTypeMatrix(encounters, coLeaves map[Pair]int,
	types map[trace.UserID]int, k int) [][]float64 {
	sums := newTypeSums(k)
	for _, p := range sortedKeys(encounters, Pair.compare) { // sorted: reproducible float sums
		sums.add(userType(types, p.A), userType(types, p.B), encounters[p], coLeaves[p])
	}
	return sums.matrix()
}

// userType is u's type, or -1 for a user without one.
func userType(types map[trace.UserID]int, u trace.UserID) int {
	if t, ok := types[u]; ok {
		return t
	}
	return -1
}

// typeSums accumulates the type matrix's k×k cells. Callers add pairs in
// (A, B) order, so the float sums come out the same every time.
type typeSums struct {
	k      int
	sums   []float64
	counts []int
}

func newTypeSums(k int) *typeSums {
	return &typeSums{k: k, sums: make([]float64, k*k), counts: make([]int, k*k)}
}

// add records one encountered pair of types ta, tb.
func (t *typeSums) add(ta, tb, encounters, coLeaves int) {
	prob, ok := CoLeaveProb(encounters, coLeaves, 0)
	if !ok || ta < 0 || tb < 0 || ta >= t.k || tb >= t.k {
		return
	}
	t.sums[ta*t.k+tb] += prob
	t.counts[ta*t.k+tb]++
	if ta != tb {
		t.sums[tb*t.k+ta] += prob
		t.counts[tb*t.k+ta]++
	}
}

func (t *typeSums) matrix() [][]float64 {
	out := make([][]float64, t.k)
	for i := range out {
		out[i] = make([]float64, t.k)
		for j := range out[i] {
			if n := t.counts[i*t.k+j]; n > 0 {
				out[i][j] = t.sums[i*t.k+j] / float64(n)
			}
		}
	}
	return out
}
