package incremental

import (
	"errors"
	"maps"
	"math"
	"slices"

	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// Errors returned by Engine.Disconnect.
var (
	ErrNotConnected = errors.New("incremental: user not connected on that AP")
	ErrTimeWentBack = errors.New("incremental: event time before connect time")
)

// compactEvery is the amortized sweep interval: every this many
// disconnects the tally core prunes stale co-leave windows across all
// APs, bounding memory on long-lived controllers that see many
// transient APs.
const compactEvery = 1024

// rowsPerShard is the tally store's load: its shards double when the
// pairs outnumber them this many times over (4 096 shards for the
// benchmark campus's 57 000 pairs; 4 to 32 ingest its 28 days within 4 %,
// the larger allocating less). It is never published, so never cloned.
const rowsPerShard = 16

// pairKey packs a pair's two user ids, the smaller in the high half: the
// pointer-free key of the tally store and the pair-probability store.
type pairKey uint64

func makePairKey(a, b uint32) pairKey { return pairKey(min(a, b))<<32 | pairKey(max(a, b)) }

func (k pairKey) ids() (a, b uint32) { return uint32(k >> 32), uint32(k) }

// pair names the key's two users, in society.Pair's canonical order.
func (k pairKey) pair(names []trace.UserID) society.Pair {
	a, b := k.ids()
	return society.MakePair(names[a], names[b])
}

// presence tracks one user's open sessions on one AP. Overlapping
// sessions of the same user form a single continuous presence: Starts
// holds the open connect times (oldest first), Since the connect time
// that opened the presence. Encounters are counted once per presence,
// when the last open session closes, so stacked sessions never tally
// the same co-presence period twice (society.ExtractEncounters does;
// TestLiveTalliesAgainstBatch pins the relation). The JSON tags are the
// state header's; id is the user's: pairing co-residents hashes no name.
type presence struct {
	Starts []int64 `json:"starts"`
	Since  int64   `json:"since"`
	id     uint32
}

// leave is one session end still inside its AP's co-leave window.
type leave struct {
	User trace.UserID `json:"user"`
	At   int64        `json:"at"`
	id   uint32
}

// tally is one pair's raw counts.
type tally struct{ encounters, coLeaves int32 }

// tallyRow is one pair's counts under its key: a row of the tally store,
// and a pair a disconnect moved, with its counts afterwards.
type tallyRow struct {
	key pairKey
	tally
}

// tallies is the live tally core: per AP the open presences and the
// recent leavings, per pair the encounter and co-leave counts (in
// shards sorted like the probabilities', pairKey.order). Each
// presence end is matched against the overlapping open presences to
// count encounters, and each session end against the recent leavings
// inside the co-leave window to count co-leavings — the paper's event
// definitions, evaluated as the events arrive. It has no lock of its
// own: the engine's mutex guards it.
//
// It also holds the engine's one id space: a dense uint32 per user, in
// first-seen order. Everything the engine counts or publishes is keyed
// by these ids, so a name is hashed once, at the event that carries it.
// names is append-only: a snapshot keeps a prefix without copying. ids is
// what a snapshot's lock-free readers resolve names through: a refresh
// lends it out, and the first new user after that copies it (rare once a
// deployment has warmed up).
type tallies struct {
	cfg         society.Config
	names       []trace.UserID
	ids         map[trace.UserID]uint32
	idsLent     bool
	open        map[trace.APID]map[trace.UserID]*presence
	recent      map[trace.APID][]leave
	pairs       [][]tallyRow // 1<<pairBits shards of numPairs rows
	pairBits    int
	numPairs    int
	touchedAt   []int32     // by user id: the user's entry in touched, plus one
	spare       []*presence // closed presences, for the next arrivals
	disconnects int         // since the last amortized compaction
	touched     []tallyRow  // disconnect's result, reused across calls
}

func newTallies(cfg society.Config) *tallies {
	return &tallies{
		cfg:    cfg,
		open:   make(map[trace.APID]map[trace.UserID]*presence),
		recent: make(map[trace.APID][]leave),
		pairs:  make([][]tallyRow, 1),
		ids:    make(map[trace.UserID]uint32),
	}
}

// intern returns u's id, assigning the next one on first sight.
func (t *tallies) intern(u trace.UserID) (id uint32, fresh bool) {
	id, known := t.ids[u]
	if !known {
		if t.idsLent {
			t.ids, t.idsLent = maps.Clone(t.ids), false
		}
		id = uint32(len(t.names))
		t.ids[u], t.names, t.touchedAt = id, append(t.names, u), append(t.touchedAt, 0)
	}
	return id, !known
}

// connect records a user associating with an AP at time ts and returns
// the user's id, fresh on first sight. Overlapping sessions of the same
// user on the same AP are tracked as one presence.
func (t *tallies) connect(u trace.UserID, ap trace.APID, ts int64) (id uint32, fresh bool) {
	users := t.open[ap]
	if users == nil {
		users = make(map[trace.UserID]*presence)
		t.open[ap] = users
	}
	p := users[u]
	if p == nil {
		if n := len(t.spare); n > 0 {
			p, t.spare = t.spare[n-1], t.spare[:n-1]
		} else {
			p = &presence{}
		}
		p.id, fresh = t.intern(u)
		p.Since = ts
		users[u] = p
	}
	p.Starts = append(p.Starts, ts)
	return p.id, fresh
}

// disconnect records a user leaving an AP at time ts and returns the
// pairs whose counts moved, each once, with its counts after the event.
// The slice is valid until the next call.
func (t *tallies) disconnect(u trace.UserID, ap trace.APID, ts int64) ([]tallyRow, error) {
	users := t.open[ap]
	p := users[u]
	if p == nil || len(p.Starts) == 0 {
		return nil, ErrNotConnected
	}
	if ts < p.Starts[0] {
		return nil, ErrTimeWentBack
	}
	// Close the oldest open session. (Re-slicing gives capacity away.)
	p.Starts = p.Starts[:copy(p.Starts, p.Starts[1:])]
	touched := t.touched[:0]

	if len(p.Starts) == 0 {
		// The presence ends: count encounters against every still-open
		// presence on this AP, once per (presence, presence) pair.
		// Closing-vs-closed was handled when the other side closed.
		delete(users, u)
		if len(users) == 0 {
			delete(t.open, ap)
		}
		for _, wp := range users {
			if ts-max(p.Since, wp.Since) >= t.cfg.MinEncounterSeconds {
				touched = t.touch(touched, p.id, wp.id, tally{1, 0})
			}
		}
		t.spare = append(t.spare, p)
	}

	// Co-leavings: recent leavings on the same AP within the window,
	// counted per session end (the paper's leaving event granularity).
	recent := t.recent[ap]
	kept := recent[:0]
	for _, ev := range recent {
		if ts-ev.At > t.cfg.CoLeaveWindowSeconds {
			continue // expired
		}
		kept = append(kept, ev)
		if ev.id != p.id {
			touched = t.touch(touched, p.id, ev.id, tally{0, 1})
		}
	}
	t.recent[ap] = append(kept, leave{User: u, At: ts, id: p.id})

	t.disconnects++
	if t.disconnects >= compactEvery {
		t.disconnects = 0
		t.compact(ts)
	}

	for i := range touched {
		a, b := touched[i].key.ids()
		t.touchedAt[a], t.touchedAt[b] = 0, 0
		touched[i].tally = t.add(touched[i])
	}
	t.touched = touched
	return touched, nil
}

// touch adds what one event counted for the pair of u and v to touched:
// to the pair's entry if the event met the pair before (an encounter and
// a co-leave, or two co-leaves), else as a new entry.
func (t *tallies) touch(touched []tallyRow, u, v uint32, counted tally) []tallyRow {
	if at := t.touchedAt[v]; at > 0 {
		c := &touched[at-1].tally
		c.encounters, c.coLeaves = c.encounters+counted.encounters, c.coLeaves+counted.coLeaves
		return touched
	}
	t.touchedAt[v] = int32(len(touched) + 1)
	return append(touched, tallyRow{makePairKey(u, v), counted})
}

// add adds r's counts to its pair's and returns the sums.
func (t *tallies) add(r tallyRow) tally {
	si, i, ok := t.find(r.key)
	if !ok {
		t.pairs[si] = slices.Insert(t.pairs[si], i, tallyRow{key: r.key})
		t.numPairs++
	}
	c := &t.pairs[si][i].tally
	c.encounters, c.coLeaves = c.encounters+r.encounters, c.coLeaves+r.coLeaves
	if t.numPairs > rowsPerShard<<t.pairBits {
		t.split() // moves no row: c stays put
	}
	return *c
}

// split doubles the tally store's shards: each one's rows are in order,
// so it halves where their order's next bit turns on (the first half
// capped, so that an append to it reallocates).
func (t *tallies) split() {
	pairs := make([][]tallyRow, 2*len(t.pairs))
	for si, shard := range t.pairs {
		cut := search(uint64(2*si+1)<<(63-t.pairBits), len(shard), func(j int) pairKey { return shard[j].key })
		pairs[2*si], pairs[2*si+1] = shard[:cut:cut], shard[cut:]
	}
	t.pairs, t.pairBits = pairs, t.pairBits+1
}

// find returns k's place in its shard of the tally store, and whether it
// is there.
func (t *tallies) find(k pairKey) (si, i int, ok bool) {
	si = k.shard(t.pairBits)
	shard := t.pairs[si]
	i = search(k.order(), len(shard), func(j int) pairKey { return shard[j].key })
	return si, i, i < len(shard) && shard[i].key == k
}

// latest returns the time of the newest event the tallies hold — an open
// session's start or a session end in its window — or math.MinInt64.
func (t *tallies) latest() int64 {
	now := int64(math.MinInt64)
	for _, users := range t.open {
		for _, p := range users {
			now = max(now, slices.Max(p.Starts))
		}
	}
	for _, evs := range t.recent {
		for _, ev := range evs {
			now = max(now, ev.At)
		}
	}
	return now
}

// compact sweeps every AP's recent-leaving window, dropping events
// older than the co-leave window and deleting AP entries that end up
// empty (open entries are deleted eagerly when their last presence
// closes, so only the leave windows accumulate).
func (t *tallies) compact(now int64) {
	expired := func(ev leave) bool { return now-ev.At > t.cfg.CoLeaveWindowSeconds }
	for ap, evs := range t.recent {
		if evs = slices.DeleteFunc(evs, expired); len(evs) == 0 {
			delete(t.recent, ap)
		} else {
			t.recent[ap] = evs
		}
	}
}

// model derives a society.Model from the raw counts alone — nothing the
// engine patches incrementally — under the given type assignment.
func (t *tallies) model(types map[trace.UserID]int, matrix [][]float64) *society.Model {
	pairs := make([]society.PairStat, 0, t.numPairs)
	for _, shard := range t.pairs {
		for _, r := range shard {
			prob, ok := society.CoLeaveProb(int(r.encounters), int(r.coLeaves), t.cfg.MinEncounters)
			pairs = append(pairs, society.PairStat{Pair: r.key.pair(t.names),
				Encounters: int(r.encounters), CoLeaves: int(r.coLeaves), Prob: prob, Supported: ok})
		}
	}
	return newModel(pairs, types, matrix, t.cfg.Alpha)
}

// newModel hands society.NewModel a copy of the type assignment. The
// pairs come off integer keys: none repeats or names one user twice.
func newModel(pairs []society.PairStat, types map[trace.UserID]int, matrix [][]float64, alpha float64) *society.Model {
	types, matrix = cloneTypes(types, matrix)
	m, err := society.NewModel(pairs, types, matrix, nil, alpha)
	if err != nil {
		panic(err)
	}
	return m
}

// cloneTypes copies a type assignment and its matrix (never nil).
func cloneTypes(types map[trace.UserID]int, matrix [][]float64) (map[trace.UserID]int, [][]float64) {
	ts := make(map[trace.UserID]int, len(types))
	maps.Copy(ts, types)
	m := make([][]float64, len(matrix))
	for i, row := range matrix {
		m[i] = append([]float64(nil), row...)
	}
	return ts, m
}
