// Package rng provides a small, fast, deterministic random number
// generator used by every randomized component in kboost.
//
// The generator is xoshiro256** seeded through splitmix64. It is not
// cryptographically secure; it is chosen for speed, quality, and — most
// importantly — reproducibility: every algorithm in this repository takes
// an explicit seed, and parallel workers derive independent streams with
// Split, so a fixed (seed, workers) pair always yields identical results.
package rng

import "math"

// Source is a deterministic pseudo-random source. It is NOT safe for
// concurrent use; derive one Source per goroutine with Split.
type Source struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances a 64-bit state and returns a well-mixed output.
// It is the canonical way to seed xoshiro state from a single word.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded deterministically from seed.
func New(seed uint64) *Source {
	var r Source
	r.Reseed(seed)
	return &r
}

// Reseed resets the Source to the stream defined by seed.
func (r *Source) Reseed(seed uint64) {
	state := seed
	r.s0 = splitmix64(&state)
	r.s1 = splitmix64(&state)
	r.s2 = splitmix64(&state)
	r.s3 = splitmix64(&state)
	// xoshiro must not be seeded with all-zero state; splitmix64 of any
	// seed cannot produce four zeros, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits (xoshiro256**).
func (r *Source) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Step is Uint64 as a pure function: it returns the output x and the
// advanced state. Hot loops load a Source's state with State, keep it
// in locals across many draws and store it back with SetState; the
// draws are exactly those Uint64 would have made, without a memory
// round trip per draw. (Uint64 keeps its own copy of the recurrence:
// written through Step it no longer fits the inliner's budget.)
func Step(s0, s1, s2, s3 uint64) (x, n0, n1, n2, n3 uint64) {
	x = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return x, s0, s1, s2, s3
}

// State returns the Source's xoshiro state (see Step).
func (r *Source) State() (s0, s1, s2, s3 uint64) { return r.s0, r.s1, r.s2, r.s3 }

// SetState stores a state advanced by Step back into the Source.
func (r *Source) SetState(s0, s1, s2, s3 uint64) { r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3 }

// Unit maps 64 random bits to a uniform float64 in [0, 1); Float64 is
// Unit of one Uint64 draw.
func Unit(x uint64) float64 { return float64(x>>11) * (1.0 / (1 << 53)) }

// Split derives a new Source whose stream is statistically independent of
// the receiver's. The receiver advances by one output.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

// StreamSeed derives the seed of the index-th stream of base: a
// stateless hash of (base, index), so stream i can be (re)constructed
// without drawing streams 0..i-1 first. Sequentially indexed streams
// are as independent as Split streams — both reduce to seeding xoshiro
// from splitmix64 outputs of well-separated states.
func StreamSeed(base, index uint64) uint64 {
	state := base
	mixed := splitmix64(&state)
	state = mixed ^ (index+1)*0x9e3779b97f4a7c15
	return splitmix64(&state)
}

// ReseedStream resets the Source to the index-th stream of base (see
// StreamSeed), reusing the receiver's storage.
func (r *Source) ReseedStream(base, index uint64) {
	r.Reseed(StreamSeed(base, index))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 { return Unit(r.Uint64()) }

// Bernoulli reports true with probability p. p outside [0,1] is clamped.
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's nearly
// division-free reduction with rejection to remove modulo bias.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling on the top of the range.
	max := math.MaxUint64 - math.MaxUint64%n
	for {
		v := r.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Int31 returns a uniform int32 in [0, n). It panics if n <= 0.
func (r *Source) Int31n(n int32) int32 {
	if n <= 0 {
		panic("rng: Int31n with non-positive n")
	}
	return int32(r.Uint64n(uint64(n)))
}

// NormFloat64 returns a standard normal variate (Box–Muller; one value
// per call, the pair's second value is discarded for simplicity).
func (r *Source) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// Exp returns an exponential variate with rate 1.
func (r *Source) Exp() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a uniform random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Sample returns k distinct values from [0, n) in random order.
// It panics if k > n or k < 0.
func (r *Source) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample with k out of range")
	}
	if k == 0 {
		return nil
	}
	// For small k relative to n, use a set-based approach; otherwise a
	// partial Fisher–Yates shuffle.
	if k*8 < n {
		seen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for len(out) < k {
			v := r.Intn(n)
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			out = append(out, v)
		}
		return out
	}
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:k]
}

// Shuffle permutes s in place.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
