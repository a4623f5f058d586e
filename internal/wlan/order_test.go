package wlan

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// byArrival is the comparator Simulate once sorted a copy of the sessions
// with: arrivalOrder must give the order slices.SortFunc with it gives,
// the order among sessions it calls equal included.
func byArrival(a, b trace.Session) int {
	return cmp.Or(cmp.Compare(a.ConnectAt, b.ConnectAt), cmp.Compare(a.Controller, b.Controller),
		cmp.Compare(a.User, b.User), cmp.Compare(a.DisconnectAt, b.DisconnectAt))
}

// TestSimulateOrderMatchesSortedCopy holds the replay's index order to the
// sorted copy it replaced, element by element, on both sides of pdqsort's
// thresholds (12 for insertion sort, 50 for the pivot choice and pattern
// breaking). Dense sessions tie on ConnectAt nearly always and fully (they
// differ only in AP and Bytes) often; sparse ones rarely tie at all.
func TestSimulateOrderMatchesSortedCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	users := []trace.UserID{"u-2", "u-10", "u-1"}
	ctls := []trace.ControllerID{"c1", "c0"}
	for _, n := range []int{0, 1, 12, 13, 50, 1000, 10_000} {
		for _, span := range []int64{3, int64(n) + 1} {
			t.Run(fmt.Sprintf("n=%d/span=%d", n, span), func(t *testing.T) {
				sessions := make([]trace.Session, n)
				for i := range sessions {
					at := rng.Int63n(span)
					sessions[i] = trace.Session{
						User:         users[rng.Intn(len(users))],
						AP:           trace.APID(fmt.Sprintf("ap-%d", i)),
						Controller:   ctls[rng.Intn(len(ctls))],
						ConnectAt:    at,
						DisconnectAt: at + 1 + rng.Int63n(2),
						Bytes:        int64(i),
					}
				}
				want := slices.Clone(sessions)
				slices.SortFunc(want, byArrival)
				order := arrivalOrder(sessions)
				if len(order) != n {
					t.Fatalf("arrivalOrder returned %d indices, want %d", len(order), n)
				}
				for i, k := range order {
					if sessions[k] != want[i] {
						t.Fatalf("arrival %d of %d: index order gives %+v, sorted copy %+v", i, n, sessions[k], want[i])
					}
				}
				if n == 1000 && span == 3 {
					// The data must tell tie orders apart: a stable sort of
					// the same sessions comes out different.
					stable := slices.Clone(sessions)
					slices.SortStableFunc(stable, byArrival)
					if slices.Equal(stable, want) {
						t.Fatal("a stable sort orders these sessions alike; the check cannot see tie order")
					}
				}
			})
		}
	}
}
