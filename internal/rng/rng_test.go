package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds matched %d/100 outputs", same)
	}
}

func TestReseedRestartsStream(t *testing.T) {
	r := New(7)
	first := make([]uint64, 10)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Reseed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("after Reseed output %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestBernoulliMean(t *testing.T) {
	r := New(13)
	for _, p := range []float64{0, 0.1, 0.5, 0.9, 1} {
		hits := 0
		const n = 100000
		for i := 0; i < n; i++ {
			if r.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.01 {
			t.Fatalf("Bernoulli(%v) frequency %v", p, got)
		}
	}
}

func TestBernoulliClamps(t *testing.T) {
	r := New(1)
	if r.Bernoulli(-0.5) {
		t.Fatal("Bernoulli(-0.5) returned true")
	}
	if !r.Bernoulli(1.5) {
		t.Fatal("Bernoulli(1.5) returned false")
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(17)
	const n, buckets = 120000, 6
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > want*0.05 {
			t.Fatalf("bucket %d count %d too far from %v", b, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := New(23)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(16); v >= 16 {
			t.Fatalf("Uint64n(16) = %d", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(29)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(31)
	for _, tc := range []struct{ n, k int }{{10, 0}, {10, 1}, {10, 5}, {10, 10}, {1000, 3}} {
		s := r.Sample(tc.n, tc.k)
		if len(s) != tc.k {
			t.Fatalf("Sample(%d,%d) returned %d values", tc.n, tc.k, len(s))
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= tc.n || seen[v] {
				t.Fatalf("Sample(%d,%d) invalid value set %v", tc.n, tc.k, s)
			}
			seen[v] = true
		}
	}
}

func TestSamplePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(3,4) did not panic")
		}
	}()
	New(1).Sample(3, 4)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(37)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v", variance)
	}
}

func TestExpMean(t *testing.T) {
	r := New(41)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean %v", mean)
	}
}

// Property: Sample always returns k distinct in-range values.
func TestQuickSample(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw%100) + 1
		k := int(kRaw) % (n + 1)
		s := New(seed).Sample(n, k)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Uint64n(n) < n for all n >= 1.
func TestQuickUint64n(t *testing.T) {
	f := func(seed, n uint64) bool {
		if n == 0 {
			n = 1
		}
		return New(seed).Uint64n(n) < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// StreamSeed must be a pure function of (base, index) — the property
// pool repair relies on to regenerate sketch i in isolation — and
// distinct (base, index) pairs must not collide in practice.
func TestStreamSeedStatelessAndDistinct(t *testing.T) {
	seen := map[uint64][2]uint64{}
	for base := uint64(0); base < 8; base++ {
		for index := uint64(0); index < 1000; index++ {
			s := StreamSeed(base, index)
			if s != StreamSeed(base, index) {
				t.Fatalf("StreamSeed(%d,%d) not deterministic", base, index)
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("StreamSeed collision: (%d,%d) and (%d,%d) -> %d",
					base, index, prev[0], prev[1], s)
			}
			seen[s] = [2]uint64{base, index}
		}
	}
	// ReseedStream must match a fresh New(StreamSeed(...)) source.
	r := New(1)
	r.Uint64()
	r.ReseedStream(42, 7)
	want := New(StreamSeed(42, 7))
	for i := 0; i < 8; i++ {
		if got, w := r.Uint64(), want.Uint64(); got != w {
			t.Fatalf("ReseedStream output %d: got %d want %d", i, got, w)
		}
	}
}

// Step, State and SetState must reproduce the Source's own stream draw
// for draw, and Unit must map bits to floats exactly as Float64 does:
// the samplers that keep the state in locals rely on it to stay
// bit-identical to the method calls they replaced.
func TestStepMatchesSource(t *testing.T) {
	r, local := New(9), New(9)
	s0, s1, s2, s3 := local.State()
	for i := 0; i < 1000; i++ {
		var x uint64
		x, s0, s1, s2, s3 = Step(s0, s1, s2, s3)
		if i%2 == 0 {
			if got := r.Uint64(); got != x {
				t.Fatalf("draw %d: Step %d, Uint64 %d", i, x, got)
			}
		} else if got := r.Float64(); got != Unit(x) {
			t.Fatalf("draw %d: Unit %v, Float64 %v", i, Unit(x), got)
		}
	}
	local.SetState(s0, s1, s2, s3)
	if a, b := local.Uint64(), r.Uint64(); a != b {
		t.Fatalf("stream after SetState: %d, want %d", a, b)
	}
}
