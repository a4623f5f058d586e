package synth

import (
	"math"
	"math/rand"
	"testing"
)

// matchDraws takes n draws from got and from want, cycling through the
// rand.Rand methods the generator uses, and fails on the first difference.
func matchDraws(t testing.TB, got, want *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var g, w any
		switch i % 5 {
		case 0:
			g, w = got.Uint64(), want.Uint64()
		case 1:
			g, w = got.Int63(), want.Int63()
		case 2:
			g, w = got.Float64(), want.Float64()
		case 3:
			g, w = got.NormFloat64(), want.NormFloat64()
		case 4:
			g, w = got.Intn(97+i), want.Intn(97+i)
		}
		if g != w {
			t.Fatalf("draw %d: moodSource gives %v, math/rand %v", i, g, w)
		}
	}
}

var moodSeeds = []int64{0, -1, 42, 89482311, 1<<31 - 1, 1<<31 + 4, -7_777_777_777, 1 << 40}

// TestMoodSourceMatchesMathRand holds moodSource to rand.NewSource draw for
// draw, past the first 273 draws (where taps start reading written entries)
// and past a full 607-draw wrap of the register, and across reseeds taken
// mid-stream.
func TestMoodSourceMatchesMathRand(t *testing.T) {
	got := rand.New(new(moodSource))
	for _, seed := range moodSeeds {
		got.Seed(seed)
		matchDraws(t, got, rand.New(rand.NewSource(seed)), 1300)
	}
	for _, seed := range moodSeeds { // reseeded after only a few draws
		got.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		matchDraws(t, got, want, 7)
		got.Seed(seed + 1)
		want.Seed(seed + 1)
		matchDraws(t, got, want, 1300)
	}
}

func FuzzMoodSource(f *testing.F) {
	for i, seed := range moodSeeds {
		f.Add(seed, uint16(6+300*i))
	}
	got := rand.New(new(moodSource))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		got.Seed(seed)
		matchDraws(t, got, rand.New(rand.NewSource(seed)), int(n%2000))
	})
}

// TestMoodSourceGenerationWrap reseeds across the generation counter's
// wrap: entries stamped before it must not pass for the new seed's.
func TestMoodSourceGenerationWrap(t *testing.T) {
	src := new(moodSource)
	got := rand.New(src)
	got.Seed(42)
	matchDraws(t, got, rand.New(rand.NewSource(42)), 100)
	src.gen = math.MaxUint32
	for _, seed := range []int64{7, 8} {
		got.Seed(seed)
		matchDraws(t, got, rand.New(rand.NewSource(seed)), 1300)
	}
}

func TestDayMoodAllocs(t *testing.T) {
	rng := rand.New(new(moodSource))
	day := 0
	allocs := testing.AllocsPerRun(200, func() {
		day++
		dayMood(rng, 1, "user-0042", day)
	})
	if allocs != 0 {
		t.Errorf("dayMood allocates %v objects, want 0", allocs)
	}
}
