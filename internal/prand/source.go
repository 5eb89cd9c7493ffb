package prand

// Source is a reseedable rand.Source64 that reproduces math/rand's additive
// lagged Fibonacci generator (rand.NewSource) draw for draw: for every seed,
// rand.New(NewSource(seed)) yields exactly the stream
// rand.New(rand.NewSource(seed)) does, through every *rand.Rand method.
//
// math/rand seeds its 607-word state by running 1,841 serial steps of the
// Park-Miller LCG x ← 48271·x mod (2³¹−1) and XORing three consecutive
// outputs into each word. Step k from seed s is simply s·48271^k mod
// (2³¹−1), so Source jumps ahead instead: word i is
//
//	(s·48271^(21+3i))<<40 ^ (s·48271^(22+3i))<<20 ^ s·48271^(23+3i) ^ cooked[i]
//
// (mod 2³¹−1 on each power, from the precomputed seedPow table), and it is
// computed only when the generator first reads it. Seeding is therefore
// O(1) — a ten-word bitmap clear — and a stream that draws d values pays for
// at most 2d state words, which is what makes one Source per random-forest
// tree builder, reseeded per tree, cheap. Not safe for concurrent use.
type Source struct {
	tap, feed int
	seed      uint64                     // reduced seed, in [1, 2³¹−2]
	ready     [(rngLen + 63) / 64]uint64 // bit i set once vec[i] is seeded
	vec       [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// seedMul is the Park-Miller multiplier math/rand's seedrand applies.
	seedMul = 48271
	// seedSkip is the number of seedrand steps math/rand discards before
	// the first state word.
	seedSkip = 20
)

// seedPow[k] = 48271^(seedSkip+1+k) mod (2³¹−1): the three LCG powers that
// state word i needs sit at seedPow[3i : 3i+3].
var seedPow = func() (t [3 * rngLen]uint64) {
	p := uint64(1)
	for k := 0; k <= seedSkip; k++ {
		p = p * seedMul % int32max
	}
	for k := range t {
		t[k] = p
		p = p * seedMul % int32max
	}
	return t
}()

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the generator to the state math/rand's Seed(seed) produces,
// including its reduction of seed mod 2³¹−1 (0 maps to 89482311). It does
// not allocate, and no state from an earlier seed survives.
func (s *Source) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.ready = [len(s.ready)]uint64{}
}

// word returns state word i, seeding it on first read.
func (s *Source) word(i int) int64 {
	if s.ready[i>>6]&(1<<(i&63)) == 0 {
		s.ready[i>>6] |= 1 << (i & 63)
		p := seedPow[3*i : 3*i+3 : 3*i+3]
		u := int64(s.seed*p[0]%int32max) << 40
		u ^= int64(s.seed*p[1]%int32max) << 20
		u ^= int64(s.seed * p[2] % int32max)
		s.vec[i] = u ^ rngCooked[i]
	}
	return s.vec[i]
}

// Uint64 returns a pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}
