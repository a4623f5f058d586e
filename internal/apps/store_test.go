package apps

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/s3wlan/s3wlan/internal/stats"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// mapStore is the ProfileStore as it was before its days were laid out
// densely: one map of days per user. It is the reference the store is held
// to.
type mapStore struct {
	epoch   int64
	byUser  map[trace.UserID]map[int][NumRealms]float64
	unknown float64
}

func (ms *mapStore) add(u trace.UserID, start int64, r Realm, bytes int64) {
	idx := r.Index()
	if idx < 0 {
		ms.unknown += float64(bytes)
		return
	}
	days := ms.byUser[u]
	if days == nil {
		days = make(map[int][NumRealms]float64)
		ms.byUser[u] = days
	}
	day := trace.DayIndex(ms.epoch, start)
	vec := days[day]
	vec[idx] += float64(bytes)
	days[day] = vec
}

func (ms *mapStore) users() []trace.UserID {
	out := make([]trace.UserID, 0, len(ms.byUser))
	for u := range ms.byUser {
		out = append(out, u)
	}
	slices.Sort(out)
	return out
}

func (ms *mapStore) days(u trace.UserID) []int {
	out := make([]int, 0, len(ms.byUser[u]))
	for d := range ms.byUser[u] {
		out = append(out, d)
	}
	slices.Sort(out)
	return out
}

func (ms *mapStore) day(u trace.UserID, day int) ([]float64, bool) {
	vec, ok := ms.byUser[u][day]
	if !ok {
		return nil, false
	}
	return slices.Clone(vec[:]), true
}

func (ms *mapStore) cumulative(u trace.UserID, from, to int) ([]float64, bool) {
	out := make([]float64, NumRealms)
	any := false
	for d := from; d <= to; d++ {
		if vec, ok := ms.byUser[u][d]; ok {
			any = true
			for i := range vec {
				out[i] += vec[i]
			}
		}
	}
	if !any {
		return nil, false
	}
	return out, true
}

func (ms *mapStore) meanNormalized(u trace.UserID) ([]float64, bool) {
	if len(ms.byUser[u]) == 0 {
		return nil, false
	}
	acc := make([]float64, NumRealms)
	n := 0
	for _, d := range ms.days(u) {
		vec := ms.byUser[u][d]
		if total := stats.Sum(vec[:]); total > 0 {
			n++
			for i, x := range vec {
				acc[i] += x / total
			}
		}
	}
	if n == 0 {
		return nil, false
	}
	for i := range acc {
		acc[i] /= float64(n)
	}
	return stats.Normalize(acc), true
}

func (ms *mapStore) nmiPoint(u trace.UserID, x, n int) (float64, bool) {
	cur, ok := ms.day(u, x)
	if !ok {
		return 0, false
	}
	old, ok := ms.day(u, x-n)
	if !ok {
		return 0, false
	}
	v, err := stats.NMI(cur, old)
	return v, err == nil
}

func (ms *mapStore) nmiCumulative(u trace.UserID, x, n int) (float64, bool) {
	cur, ok := ms.day(u, x)
	if !ok {
		return 0, false
	}
	hist, ok := ms.cumulative(u, x-n, x-1)
	if !ok {
		return 0, false
	}
	v, err := stats.NMI(cur, hist)
	return v, err == nil
}

// storeAdd is one UserProfile.Add.
type storeAdd struct {
	u     trace.UserID
	start int64
	r     Realm
	bytes int64
}

// randomAdds returns adds over a few users on days from −1 (before the
// epoch) to 40 with week-long gaps, of every realm value (the unset zero
// and RealmUnknown among them, and a user who has only those), some of
// zero bytes.
func randomAdds(rng *rand.Rand, epoch int64) []storeAdd {
	days := []int{-1, 0, 1, 2, 9, 16, 17, 30, 40}
	adds := make([]storeAdd, rng.Intn(80))
	for i := range adds {
		day := days[rng.Intn(len(days))]
		a := storeAdd{
			u:     trace.UserID(fmt.Sprintf("u%d", rng.Intn(5))),
			start: epoch + int64(day)*86400 + rng.Int63n(86400),
			r:     Realm(rng.Intn(int(RealmUnknown) + 2)),
			bytes: rng.Int63n(1000),
		}
		if rng.Intn(5) == 0 {
			a.bytes = 0
		}
		if a.u == "u4" && a.r.Index() >= 0 {
			a.r = RealmUnknown
		}
		adds[i] = a
	}
	return adds
}

// TestProfileStoreMatchesMapStore holds the dense store to the map store it
// replaced over random adds: every read agrees, bit for bit. The same adds
// made in another order, through UserProfile entries with any room, give a
// store reflect.DeepEqual to the first — what GenerateProfiles' streamed
// store and BuildProfiles' need.
func TestProfileStoreMatchesMapStore(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const epoch = 1_000_000
	for trial := 0; trial < 500; trial++ {
		adds := randomAdds(rng, epoch)
		ps := NewProfileStore(epoch)
		ms := &mapStore{epoch: epoch, byUser: map[trace.UserID]map[int][NumRealms]float64{}}
		for _, a := range adds {
			up := ps.User(a.u, 0)
			up.Add(a.start, a.r, a.bytes)
			ms.add(a.u, a.start, a.r, a.bytes)
		}

		if got, want := ps.Users(), ms.users(); !slices.Equal(got, want) {
			t.Fatalf("trial %d: Users %v, want %v", trial, got, want)
		}
		if ps.unknown != ms.unknown {
			t.Fatalf("trial %d: unknown volume %v, want %v", trial, ps.unknown, ms.unknown)
		}
		for _, u := range []trace.UserID{"u0", "u1", "u2", "u3", "u4", "ghost"} {
			fail := func(what string, got, want any) {
				t.Helper()
				t.Fatalf("trial %d: %s of %s = %v, want %v", trial, what, u, got, want)
			}
			if got, want := ps.Days(u), ms.days(u); !slices.Equal(got, want) {
				fail("Days", got, want)
			}
			got, gotOK := ps.MeanNormalized(u)
			want, wantOK := ms.meanNormalized(u)
			if !slices.Equal(got, want) || gotOK != wantOK {
				fail("MeanNormalized", got, want)
			}
			for x := -3; x <= 43; x++ {
				got, gotOK := ps.Day(u, x)
				want, wantOK := ms.day(u, x)
				if !slices.Equal(got, want) || gotOK != wantOK {
					fail(fmt.Sprintf("Day %d", x), got, want)
				}
				to := x + rng.Intn(30) - 5
				got, gotOK = ps.Cumulative(u, x, to)
				want, wantOK = ms.cumulative(u, x, to)
				if !slices.Equal(got, want) || gotOK != wantOK {
					fail(fmt.Sprintf("Cumulative %d…%d", x, to), got, want)
				}
				for n := 1; n <= 10; n++ {
					p, pOK := ps.NMIPoint(u, x, n)
					q, qOK := ms.nmiPoint(u, x, n)
					if p != q || pOK != qOK {
						fail(fmt.Sprintf("NMIPoint %d, %d", x, n), p, q)
					}
					p, pOK = ps.NMICumulative(u, x, n)
					q, qOK = ms.nmiCumulative(u, x, n)
					if p != q || pOK != qOK {
						fail(fmt.Sprintf("NMICumulative %d, %d", x, n), p, q)
					}
				}
			}
		}

		shuffled := NewProfileStore(epoch)
		for _, k := range rng.Perm(len(adds)) {
			a := adds[k]
			up := shuffled.User(a.u, rng.Intn(50)-5)
			up.Add(a.start, a.r, a.bytes)
		}
		if !reflect.DeepEqual(shuffled, ps) {
			t.Fatalf("trial %d: the same adds in another order give another store", trial)
		}
	}
}
