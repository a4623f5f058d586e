package synth

import "math/rand"

// moodSource reproduces math/rand's rngSource (rand.NewSource) draw for draw
// but seeds in O(1): rngSource fills register entry i from Lehmer steps
// 21+3i…23+3i of x₀, and step n is x₀·48271ⁿ mod (2³¹−1), so Seed keeps x₀
// and each entry is computed from it when first read.
type moodSource struct {
	tap, feed int
	x0        uint64         // the normalised seed
	gen       uint32         // bumped by every Seed; never 0 after one
	stamp     [rngLen]uint32 // vec[i] is this seed's iff stamp[i] == gen
	vec       [rngLen]uint64
}

const rngLen, rngTap, int32max = 607, 273, 1<<31 - 1 // rngSource's shape

// moodJump[i] is 48271^(21+3i) mod (2³¹−1), moodCooked[i] the constant
// rngSource XORs into entry i. Rather than a copied table, they come from
// rand.NewSource(1): 607 draws overwrite its whole register, copied here at
// each draw's feed entry, and undone in reverse (feed −= tap) leave it seeded.
var moodJump, moodCooked = func() (jump, cooked [rngLen]uint64) {
	src := rand.NewSource(1).(rand.Source64)
	for k := 1; k <= rngLen; k++ { // draw k adds entry 607−k into (334−k) mod 607
		cooked[(2*rngLen-rngTap-k)%rngLen] = src.Uint64()
	}
	for k := rngLen; k >= 1; k-- {
		cooked[(2*rngLen-rngTap-k)%rngLen] -= cooked[(rngLen-k)%rngLen]
	}
	for i, x := -7, uint64(1); i < rngLen; i++ { // x is seed 1's step 21+3i
		if i >= 0 {
			jump[i], cooked[i] = x, cooked[i]^lehmerWord(x)
		}
		x = lehmer(lehmer(lehmer(x)))
	}
	return jump, cooked
}()

// lehmer is one step of rngSource's seeding generator.
func lehmer(x uint64) uint64 { return x * 48271 % int32max }

// lehmerWord is the uncooked register entry whose first Lehmer step is x.
func lehmerWord(x uint64) uint64 { return x<<40 ^ lehmer(x)<<20 ^ lehmer(lehmer(x)) }

// Seed normalises seed as rngSource does and starts a new generation.
func (s *moodSource) Seed(seed int64) {
	if s.x0 = uint64(seed%int32max+int32max) % int32max; s.x0 == 0 {
		s.x0 = 89482311
	}
	s.tap, s.feed = 0, rngLen-rngTap
	if s.gen++; s.gen == 0 { // wrapped: old stamps would pass as current
		clear(s.stamp[:])
		s.gen = 1
	}
}

func (s *moodSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Uint64 is rngSource.Uint64, computing entries of an older generation first.
func (s *moodSource) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	for _, i := range [2]int{s.feed, s.tap} {
		if s.stamp[i] != s.gen {
			s.vec[i], s.stamp[i] = lehmerWord(s.x0*moodJump[i]%int32max)^moodCooked[i], s.gen
		}
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}
