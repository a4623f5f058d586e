package society

import (
	"cmp"
	"slices"
	"sync"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// visit is one session as the event extractors read it: who (by rank),
// and when they connected and left.
type visit struct {
	rank                uint32
	connect, disconnect int64
}

// dense is a session list regrouped for counting pair events. Users are
// ranked in sorted UserID order, so a pair of ranks compares exactly as
// the pair of ids does, and the extractors count and sort on integers
// instead of hashing and comparing two strings per event. Every AP's
// visits are kept in both orders the extractors read, sorted once: by
// connect time and by (leaving time, rank). An extraction reads a dense
// and writes only its own event buffers, so a Trainer's one dense serves
// any number of concurrent trainings.
//
// A training fills, reads and throws away an event per encounter and
// co-leave and the counting sort's second buffer, a one-shot one also a
// visit per session; a sweep trains sixteen times over one campus, so a
// finished dense hands those buffers to the next through densePool.
type dense struct {
	users              []trace.UserID // rank → id, ascending
	aps                []trace.APID   // ascending
	byConnect, byLeave [][]visit      // parallel to aps: slices of visits

	visits            []visit
	eventBuf, sortBuf []uint64
	// intern's id → rank and AP → rank; a window's rank mapping.
	rank   map[trace.UserID]uint32
	apRank map[trace.APID]int
	remap  []uint32
}

// densePool lends out released denses for their buffers. A sync.Pool
// drops its entries at a collection, so an idle dense cannot pin the
// heap, and concurrent extractions each get their own.
var densePool = sync.Pool{New: func() any { return new(dense) }}

// intern fills d with the sessions that connect at or after from grouped
// per AP, their users and also's ranked together. d's users, aps and maps
// are new.
func (d *dense) intern(sessions []trace.Session, from int64, also []trace.UserID) *dense {
	d.rank, d.apRank = make(map[trace.UserID]uint32, len(also)), make(map[trace.APID]int)
	for _, u := range also {
		d.rank[u] = 0
	}
	n := 0
	for _, s := range sessions {
		if s.ConnectAt >= from {
			d.rank[s.User] = 0
			d.apRank[s.AP]++ // an AP's visits first, its rank after
			n++
		}
	}
	d.users, d.aps = rankUsers(d.rank, nil), sortedKeys(d.apRank, cmp.Compare[trace.APID])
	// One array holds every group, each at the capacity just counted.
	d.visits = slices.Grow(d.visits[:0], 2*n)[:2*n]
	d.byConnect = slices.Grow(d.byConnect[:0], len(d.aps))[:len(d.aps)]
	d.byLeave = slices.Grow(d.byLeave[:0], len(d.aps))[:len(d.aps)]
	conn, leave := d.visits[:n], d.visits[n:]
	for r, ap := range d.aps {
		c := d.apRank[ap]
		d.byConnect[r], conn = conn[:0:c], conn[c:]
		d.byLeave[r], leave = leave[:0:c], leave[c:]
		d.apRank[ap] = r
	}
	for _, s := range sessions {
		if s.ConnectAt >= from {
			a := d.apRank[s.AP]
			d.byConnect[a] = append(d.byConnect[a], visit{d.rank[s.User], s.ConnectAt, s.DisconnectAt})
		}
	}
	for a, g := range d.byConnect {
		slices.SortFunc(g, func(x, y visit) int { return cmp.Compare(x.connect, y.connect) })
		d.byLeave[a] = append(d.byLeave[a], g...)
		slices.SortFunc(d.byLeave[a], func(x, y visit) int {
			return cmp.Or(cmp.Compare(x.disconnect, y.disconnect), cmp.Compare(x.rank, y.rank))
		})
	}
	return d
}

// since is the tail of a by-connect group that connects at or after from.
func since(g []visit, from int64) []visit {
	i, _ := slices.BinarySearchFunc(g, from, func(v visit, from int64) int { return cmp.Compare(v.connect, from) })
	return g[i:]
}

// window ranks anew, in id order, the users with a visit connecting at or
// after from and the typed ones (all of them d's), and returns them and
// their id → rank map, both new; s.remap maps d's ranks of theirs to the
// new. It reads d.rank, intern's map, which lasts as long as d's visits.
func (d *dense) window(s *dense, from int64, types map[trace.UserID]int) ([]trace.UserID, map[trace.UserID]uint32) {
	in := slices.Grow(s.remap[:0], len(d.users))[:len(d.users)] // 1 for a user in the window
	clear(in)
	for u := range types {
		in[d.rank[u]] = 1
	}
	for _, g := range d.byConnect {
		for _, v := range since(g, from) {
			in[v.rank] = 1
		}
	}
	n := 0
	for _, m := range in {
		n += int(m)
	}
	users, rank := make([]trace.UserID, 0, n), make(map[trace.UserID]uint32, n)
	for r, u := range d.users {
		if in[r] != 0 {
			in[r] = uint32(len(users))
			rank[u] = in[r]
			users = append(users, u)
		}
	}
	s.remap = in
	return users, rank
}

// rankUsers adds the typed users to rank's keys (one with no pair still
// has prior-only relations), ranks the keys in sorted order and returns them.
func rankUsers(rank map[trace.UserID]uint32, types map[trace.UserID]int) []trace.UserID {
	for u := range types {
		rank[u] = 0
	}
	users := sortedKeys(rank, cmp.Compare[trace.UserID])
	for r, u := range users {
		rank[u] = uint32(r)
	}
	return users
}

func sortedKeys[K comparable, V any](m map[K]V, compare func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compare)
	return keys
}

// A pair event is one uint64: the smaller rank in the high 31 bits, the
// larger in the next 32, and the kind in the lowest — so sorting a list
// of events groups each pair's, in (A, B) id order, encounters first.
// (The smaller rank of a pair stays below 2³¹: that many distinct ids do
// not fit in memory.)
const (
	eventEncounter = 0
	eventCoLeave   = 1
)

func pairEvent(a, b uint32, kind uint64) uint64 {
	if b < a {
		a, b = b, a
	}
	return uint64(a)<<33 | uint64(b)<<1 | kind
}

// encounters appends to events one event per two sessions of different
// users on one AP that connect at or after from and overlap by at least
// minOverlap seconds, unsorted.
func (d *dense) encounters(events []uint64, from, minOverlap int64) []uint64 {
	for _, g := range d.byConnect {
		g = since(g, from)
		for i := range g {
			for j := i + 1; j < len(g); j++ {
				// Sorted by connect time: once j starts after i ends,
				// no later session can overlap i either.
				if g[j].connect >= g[i].disconnect {
					break
				}
				if g[i].rank == g[j].rank {
					continue
				}
				overlap := min(g[i].disconnect, g[j].disconnect) - g[j].connect
				if max(overlap, 0) >= minOverlap {
					events = append(events, pairEvent(g[i].rank, g[j].rank, eventEncounter))
				}
			}
		}
	}
	return events
}

// eachCoLeave calls emit, AP by AP, for every two leavings of different
// users no more than window seconds apart whose sessions connect at or
// after from: first < second are positions in d.byLeave[ap], and calls
// come in ascending (first, second) order.
func (d *dense) eachCoLeave(from, window int64, emit func(ap, first, second int)) {
	for ap, g := range d.byLeave {
		for i := range g {
			if g[i].connect < from {
				continue
			}
			for j := i + 1; j < len(g); j++ {
				if g[j].disconnect-g[i].disconnect > window {
					break
				}
				if g[i].rank != g[j].rank && g[j].connect >= from {
					emit(ap, i, j)
				}
			}
		}
	}
}

// events lists every encounter and co-leave of the sessions that connect
// at or after from, sorted, in s's buffers.
func (d *dense) events(s *dense, from, minOverlap, window int64) []uint64 {
	events := d.encounters(s.eventBuf[:0], from, minOverlap)
	d.eachCoLeave(from, window, func(ap, first, second int) {
		g := d.byLeave[ap]
		events = append(events, pairEvent(g[first].rank, g[second].rank, eventCoLeave))
	})
	s.eventBuf = events
	s.sortEvents(events, len(d.users))
	return events
}

// sortEvents sorts pair events over users ranks in place. Their keys are
// two small integers — (larger rank, kind) below 2·users and the smaller
// rank below users — so two stable counting passes, least significant
// first, order a campus's million events in linear time where a
// comparison sort spent a quarter of Train.
func (d *dense) sortEvents(events []uint64, users int) {
	d.sortBuf = slices.Grow(d.sortBuf[:0], len(events))
	tmp := d.sortBuf[:len(events)]
	countingPass(tmp, events, 2*users, 0, 1<<33-1)
	countingPass(events, tmp, users, 33, 1<<31-1)
}

// countingPass copies src into dst in stable order of the key
// (event>>shift)&mask, which is below buckets.
func countingPass(dst, src []uint64, buckets int, shift uint, mask uint64) {
	at := make([]int, buckets+1) // at[k]: where the next event with key k goes
	for _, ev := range src {
		at[(ev>>shift)&mask+1]++
	}
	for k := 1; k <= buckets; k++ {
		at[k] += at[k-1]
	}
	for _, ev := range src {
		k := (ev >> shift) & mask
		dst[at[k]] = ev
		at[k]++
	}
}

// eachPair folds sorted events into one call per pair, in (A, B) id
// order, with the pair's ranks (a < b) and event counts.
func eachPair(events []uint64, f func(a, b uint32, encounters, coLeaves int)) {
	for i := 0; i < len(events); {
		pair := events[i] >> 1
		var n [2]int
		for ; i < len(events) && events[i]>>1 == pair; i++ {
			n[events[i]&1]++
		}
		f(uint32(pair>>32), uint32(pair), n[eventEncounter], n[eventCoLeave])
	}
}
