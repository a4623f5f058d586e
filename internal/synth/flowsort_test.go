package synth

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// byStartUser is the order Generate's flows are in: slices.SortStableFunc
// with it over the flows in emission order is what sortFlows must
// reproduce, the order among equal (Start, User) included.
func byStartUser(a, b trace.Flow) int {
	if c := cmp.Compare(a.Start, b.Start); c != 0 {
		return c
	}
	return cmp.Compare(a.User, b.User)
}

// flowUsers are ids whose numeric order is not their string order
// ("user-10" < "user-2" < "user-9"), so ranks taken in the wrong order
// would misplace flows that share a Start.
var flowUsers = []trace.UserID{"user-9", "user-10", "user-2", "user-100", "user-11", "user-1"}

// rankedUsers is flowUsers sorted: the users an emitted flow's rank indexes.
func rankedUsers() []trace.UserID {
	users := slices.Clone(flowUsers)
	slices.Sort(users)
	return users
}

// emittedFlows returns n records over ranks of rankedUsers and starts in
// [0, span), in runs of one to four records a user as sessions emit them,
// split into days of random length (some empty). Each record's bytes are
// its emission place (a SrcPort cannot number 100 000 flows), so two flows
// that tie on (Start, User) still differ.
func emittedFlows(rng *rand.Rand, n int, span int64) [][]emittedFlow {
	var days [][]emittedFlow
	var day []emittedFlow
	for p := 0; p < n; {
		rank := int32(rng.Intn(len(flowUsers)))
		for run := 1 + rng.Intn(4); run > 0 && p < n; run-- {
			start := rng.Int63n(span)
			day = append(day, emittedFlow{start: start, end: start + 1, bytes: int64(p), rank: rank, realm: uint8(p % 6)})
			p++
		}
		if rng.Intn(n/8+2) == 0 {
			days = append(days, day, nil)
			day = nil
		}
	}
	return append(days, day)
}

// joinedFlows returns the flows of days' records, joined in emission order.
func joinedFlows(days [][]emittedFlow) []trace.Flow {
	var flows []trace.Flow
	users := rankedUsers()
	for _, day := range days {
		for i := range day {
			flows = append(flows, day[i].flow(users))
		}
	}
	return flows
}

// checkFlowKeySort fails t unless sortFlows (days from epoch 0) orders
// days' flows exactly as slices.SortStableFunc with byStartUser orders them
// joined. It sorts a copy: sortFlows reorders the records it is given.
func checkFlowKeySort(t testing.TB, days [][]emittedFlow) {
	t.Helper()
	want := joinedFlows(days)
	slices.SortStableFunc(want, byStartUser)
	own := make([][]emittedFlow, len(days))
	for d, day := range days {
		own[d] = slices.Clone(day)
	}
	got := sortFlows(own, rankedUsers(), 0)
	if len(got) != len(want) {
		t.Fatalf("sortFlows returned %d flows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flow %d of %d: sortFlows gives %+v, slices.SortStableFunc %+v", i, len(want), got[i], want[i])
		}
	}
}

// TestFlowKeySortMatchesSortFunc holds sortFlows to the stable flow sort,
// element by element, with dense ties (six users, four seconds) and sparse
// ones. In the n/span cases every flow starts on day 0 or 1 whatever day
// emitted it; in the by_day ones each starts on the day that emitted it, as
// a generated campus's do; the straddle case has a flow start on the day
// after its own, past that day's first flow and tied with a flow emitted
// there. The digests in TestGenerateDigestPinned rest on it.
func TestFlowKeySortMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{0, 1, 12, 13, 50, 1000, 100_000} {
		for _, span := range []int64{4, int64(n) + 1} {
			t.Run(fmt.Sprintf("n=%d/span=%d", n, span), func(t *testing.T) {
				days := emittedFlows(rng, n, span)
				checkFlowKeySort(t, days)
				if n != 1000 || span != 4 {
					return
				}
				// The data must tell the orders apart: ranked by number
				// instead of by id, the same sort would come out different.
				byNumber := func(a, b trace.Flow) int {
					if c := cmp.Compare(a.Start, b.Start); c != 0 {
						return c
					}
					return cmp.Compare(userNumber(t, a.User), userNumber(t, b.User))
				}
				want, numeric := joinedFlows(days), joinedFlows(days)
				slices.SortStableFunc(want, byStartUser)
				slices.SortStableFunc(numeric, byNumber)
				if slices.Equal(want, numeric) {
					t.Fatal("numeric and string ranks sort these flows alike; the check cannot tell them apart")
				}
			})
		}
		t.Run(fmt.Sprintf("n=%d/by_day", n), func(t *testing.T) {
			days := emittedFlows(rng, n, 4)
			for d := range days {
				for i := range days[d] {
					days[d][i].start += int64(d) * 86400
				}
			}
			checkFlowKeySort(t, days)
		})
	}
	t.Run("straddle", func(t *testing.T) {
		rec := func(start int64, rank int32, place int64) emittedFlow {
			return emittedFlow{start: start, end: start + 1, bytes: place, rank: rank}
		}
		checkFlowKeySort(t, [][]emittedFlow{
			{rec(100, 1, 0), rec(86400+900, 2, 1), rec(3600, 0, 2)},           // day 0; one starts in day 1
			{rec(86400+50, 3, 3), rec(86400+900, 2, 4), rec(86400+900, 1, 5)}, // ties with it
			{rec(2*86400+10, 0, 6), rec(100, 1, 7)},                           // one starts in day 0
		})
	})
}

func userNumber(t *testing.T, u trace.UserID) int {
	n, err := strconv.Atoi(strings.TrimPrefix(string(u), "user-"))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestValidateRankBound: a flow's sort key holds its user's rank in
// rankBits, so Validate refuses as many users as that cannot rank.
func TestValidateRankBound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 1<<rankBits - 1
	if err := cfg.Validate(); err != nil {
		t.Errorf("Users = 2^%d − 1: %v", rankBits, err)
	}
	cfg.Users = 1 << rankBits
	if err := cfg.Validate(); err == nil {
		t.Errorf("Users = 2^%d validated; its ranks do not fit a flow key", rankBits)
	}
}

// FuzzFlowKeySort is TestFlowKeySortMatchesSortFunc's property over fuzzed
// flows: each two bytes of data are one flow, a signed offset of 700 s
// steps from the start of the day that emits it (two days before it to one
// after) and its user's rank, and cut ends a day after every cut-th flow.
func FuzzFlowKeySort(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{3, 0, 3, 1, 3, 0, 0xff, 2, 3, 1}, uint8(2))
	long := make([]byte, 2*200)
	rand.New(rand.NewSource(1)).Read(long)
	f.Add(long, uint8(37))
	f.Fuzz(func(t *testing.T, data []byte, cut uint8) {
		var days [][]emittedFlow
		var day []emittedFlow
		for p := 0; p+1 < len(data); p += 2 {
			start := int64(len(days))*86400 + int64(int8(data[p]))*700
			rank := int32(int(data[p+1]) % len(flowUsers))
			day = append(day, emittedFlow{start: start, end: start + 1, bytes: int64(p / 2), rank: rank})
			if cut > 0 && len(day)%int(cut) == 0 {
				days, day = append(days, day), nil
			}
		}
		checkFlowKeySort(t, append(days, day))
	})
}

// TestEmittedFlowLayout: the record a campus's flows are staged in stays
// 32 bytes of integers. A string field added back would pass every digest
// and cost each flow its pointers again.
func TestEmittedFlowLayout(t *testing.T) {
	typ := reflect.TypeFor[emittedFlow]()
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("emittedFlow.%s is a %s, not an integer", f.Name, f.Type)
		}
	}
	if size := unsafe.Sizeof(emittedFlow{}); size != 32 {
		t.Errorf("emittedFlow is %d bytes, want 32", size)
	}
}
