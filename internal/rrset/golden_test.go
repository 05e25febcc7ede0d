package rrset

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// goldenRR pins sha256 digests of an RR-set pool's coverage contents,
// its selections, SelectSeeds and SelectMarginalSeeds, and a Generate
// run on one stream, keyed by worker count (each worker samples from
// its own split stream, so the pool depends on the partition). The
// digests were recorded once and must never be edited: they anchor the
// sampler's exact draw sequence, which a rewrite of the per-edge loop
// must keep. The graph mixes in p = 0 and p = 1 edges, on which
// Bernoulli draws nothing.
var goldenRR = map[int]string{
	1: "d7db87ff5974be51f7ad0519b2c2db162c85575a260ea29016c4389388bc3301",
	2: "313d16d71c5fd664be5457cecd2db28ec228b34d18564c4072fca4a1aa856cbc",
	7: "6cebbd0396d4306213b0b18b426b5f32e963b3da3765d6f207e05191440f5e3c",
}

// goldenRRTranscript builds and queries one pool and returns its text
// transcript.
func goldenRRTranscript(t *testing.T, workers int) string {
	t.Helper()
	ctx := context.Background()
	g := testutil.EdgeCaseGraph(rng.New(2024), 60, 240, 0.3)
	var b strings.Builder
	pool := NewPool(g, 13, workers)
	pool.Ban([]int32{0, 9})
	for _, target := range []int{300, 700} {
		if err := pool.ExtendContext(ctx, target); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "size %d sets %v\n", pool.Size(), pool.cov.Sets())
	}
	set, cov := pool.SelectAndCover(4)
	fmt.Fprintf(&b, "select %v %v coverage %d\n", set, cov, pool.CoverageOf([]int32{1, 2, 3}))

	opt := Options{Seed: 19, Workers: workers, MaxSamples: 3000}
	res, err := SelectSeeds(g, 4, opt)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "seeds %+v\n", res)
	res, err = SelectMarginalSeeds(g, []int32{0, 9}, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "marginal %+v\n", res)

	r := rng.New(uint64(workers))
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "rr %v\n", Generate(g, int32(r.Intn(g.N())), r))
	}
	fmt.Fprintf(&b, "stream end %d\n", r.Uint64())
	return b.String()
}

func TestGoldenDigests(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		sum := sha256.Sum256([]byte(goldenRRTranscript(t, workers)))
		if got := fmt.Sprintf("%x", sum); got != goldenRR[workers] {
			t.Errorf("workers %d: digest %s, want %s", workers, got, goldenRR[workers])
		}
	}
}
