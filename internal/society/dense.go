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
// instead of hashing and comparing two strings per event.
//
// An extraction fills, reads and throws away a visit per session, an
// event per encounter and co-leave, and the counting sort's second
// buffer; a sweep trains sixteen times over one campus, so a finished
// dense hands those buffers to the next through densePool.
type dense struct {
	users []trace.UserID // rank → id, ascending
	aps   []trace.APID   // ascending
	byAP  [][]visit      // parallel to aps: slices of visits

	visits            []visit
	eventBuf, sortBuf []uint64
}

// densePool lends out released denses for their buffers. A sync.Pool
// drops its entries at a collection, so an idle dense cannot pin the
// heap, and concurrent extractions each get their own.
var densePool = sync.Pool{New: func() any { return new(dense) }}

// release returns d to the pool: d and its event slices are dead from here.
func (d *dense) release() { densePool.Put(d) }

// newDense regroups the sessions that connect at or after from, ranking
// their users together with the typed ones, and returns the ranking too.
// The caller releases the dense; its users and the ranking are new.
func newDense(sessions []trace.Session, from int64, types map[trace.UserID]int) (*dense, map[trace.UserID]uint32) {
	userRank := make(map[trace.UserID]uint32, len(types))
	apRank := make(map[trace.APID]int) // an AP's visits first, its rank after
	n := 0
	for _, s := range sessions {
		if s.ConnectAt >= from {
			userRank[s.User] = 0
			apRank[s.AP]++
			n++
		}
	}
	d := densePool.Get().(*dense)
	d.users, d.aps = rankUsers(userRank, types), sortedKeys(apRank, cmp.Compare[trace.APID])
	// One array holds every group, each at the capacity just counted.
	d.visits = slices.Grow(d.visits[:0], n)
	visits := d.visits[:n]
	d.byAP = slices.Grow(d.byAP[:0], len(d.aps))[:len(d.aps)]
	for r, ap := range d.aps {
		d.byAP[r], visits = visits[:0:apRank[ap]], visits[apRank[ap]:]
		apRank[ap] = r
	}
	for _, s := range sessions {
		if s.ConnectAt >= from {
			a := apRank[s.AP]
			d.byAP[a] = append(d.byAP[a], visit{userRank[s.User], s.ConnectAt, s.DisconnectAt})
		}
	}
	return d, userRank
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

// encounters lists one event per two sessions of different users on one
// AP that overlap by at least minOverlap seconds, unsorted.
func (d *dense) encounters(minOverlap int64) []uint64 {
	events := d.eventBuf[:0]
	for _, g := range d.byAP {
		slices.SortFunc(g, func(x, y visit) int { return cmp.Compare(x.connect, y.connect) })
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
	d.eventBuf = events
	return events
}

// eachCoLeave sorts every AP's visits by (leaving time, user) and then,
// AP by AP, calls emit for every two leavings of different users no more
// than window seconds apart: first < second are positions in d.byAP[ap],
// and calls come in ascending (first, second) order.
func (d *dense) eachCoLeave(window int64, emit func(ap, first, second int)) {
	for ap, g := range d.byAP {
		slices.SortFunc(g, func(x, y visit) int {
			return cmp.Or(cmp.Compare(x.disconnect, y.disconnect), cmp.Compare(x.rank, y.rank))
		})
		for i := range g {
			for j := i + 1; j < len(g); j++ {
				if g[j].disconnect-g[i].disconnect > window {
					break
				}
				if g[i].rank != g[j].rank {
					emit(ap, i, j)
				}
			}
		}
	}
}

// events lists every encounter and co-leave, sorted.
func (d *dense) events(minOverlap, window int64) []uint64 {
	events := d.encounters(minOverlap)
	d.eachCoLeave(window, func(ap, first, second int) {
		g := d.byAP[ap]
		events = append(events, pairEvent(g[first].rank, g[second].rank, eventCoLeave))
	})
	d.eventBuf = events
	d.sortEvents(events)
	return events
}

// sortEvents sorts pair events in place. Their keys are two small
// integers — (larger rank, kind) below 2·users and the smaller rank below
// users — so two stable counting passes, least significant first, order
// a campus's million events in linear time where a comparison sort spent
// a quarter of Train.
func (d *dense) sortEvents(events []uint64) {
	d.sortBuf = slices.Grow(d.sortBuf[:0], len(events))
	tmp := d.sortBuf[:len(events)]
	countingPass(tmp, events, 2*len(d.users), 0, 1<<33-1)
	countingPass(events, tmp, len(d.users), 33, 1<<31-1)
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
