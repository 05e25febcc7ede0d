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
// run on one stream. The pool draws set j from rng.StreamSeed(seed, j),
// so its lines are the same at every worker count; the digests are
// keyed by worker count only because the closing Generate run draws
// from rng.New(workers). The digests were re-pinned once, when the pool
// moved from per-worker split streams to one stream per set (the pool
// lines changed, the rr lines did not), and must otherwise never be
// edited: they anchor the sampler's exact draw sequence, which a
// rewrite of the per-edge loop must keep. The graph mixes in p = 0 and
// p = 1 edges, on which Bernoulli draws nothing.
var goldenRR = map[int]string{
	1: "7ca620e093f95c48845c41e1264e68fe37237193662ea5558a51d784dc210276",
	2: "4c6d51bfa724a189ebab4b062c424a9fa93cc33b1b059f43d5e2153446e4fd37",
	7: "f4fff234c91bfd2048fec6f36f70e05ae9187be8a5298646a05f60acdcaf7d0b",
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
	res, err := SelectSeedsContext(context.Background(), g, 4, opt)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "seeds %+v\n", res)
	res, err = SelectMarginalSeedsContext(context.Background(), g, []int32{0, 9}, 3, opt)
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
