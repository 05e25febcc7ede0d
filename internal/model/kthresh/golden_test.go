package kthresh

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// goldenKThresh pins sha256 digests of everything a k-threshold pool
// computes — its contents, estimates, selections and the tier-1 sample
// vectors — for two pool seeds. The digests were recorded once and
// must never be edited: they anchor the pool's answers independently
// of the naive references, which a refactor can move together with the
// fast paths. Each digest must come out the same at worker counts 1, 2
// and 7. The transcript also prints MemoryEstimate: the digests were
// re-pinned once, when the pool began counting its bytes by capacity,
// after checking that no line but the mem line changed.
var goldenKThresh = map[uint64]string{
	5: "b93e3f429af7e3e124a3eceb57f33f96246bcb13bfcf897cf98d3673869083d5",
	6: "de480db938e7b95482dde51e7bda63560f436a8f553fde83270e2efece52f056",
}

// dumpPool renders the pool contents in a layout-independent text
// form: profile seeds, each profile's base active set, frontier and
// frontier exposure counts, and the frontier index's posting lists.
func dumpPool(p *Pool) string {
	var b strings.Builder
	for pi := 0; pi < p.NumProfiles(); pi++ {
		pr := p.Profile(pi)
		live := make([]int32, len(pr.Pay))
		boost := make([]int32, len(pr.Pay))
		for j, e := range pr.Pay {
			live[j], boost[j] = e.live, e.boost
		}
		fmt.Fprintf(&b, "profile %d seed %d\n active %v\n front %v\n live %v\n boost %v\n",
			pi, pr.Seed, pr.Active, pr.Front, live, boost)
	}
	for v := int32(0); int(v) < p.Graph().N(); v++ {
		fmt.Fprintf(&b, "idx %d %v\n", v, p.FrontierProfiles(v))
	}
	return b.String()
}

// goldenTranscript runs the pinned query sequence on one pool and
// returns its text transcript.
func goldenTranscript(t *testing.T, seed uint64, workers int) string {
	t.Helper()
	ctx := context.Background()
	r := rng.New(2024)
	g := testutil.RandomGraph(r, 40, 320, 0.8)
	seeds := []int32{0, 1, 2, 3, 7}
	m := New(2)
	var b strings.Builder
	pool, err := m.NewPool(g, seeds, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []int{120, 300} {
		if err := pool.ExtendContext(ctx, target); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Fprintf(&b, "%s", dumpPool(pool))
	fmt.Fprintf(&b, "base %v mem %d gen %d\n", pool.BaseSpread(), pool.MemoryEstimate(), pool.Generation())
	est, err := pool.EstimateBoost([]int32{3, 11, 19})
	if err != nil {
		t.Fatal(err)
	}
	spread, err := pool.EstimateSpread([]int32{3, 11, 19})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "boost %v spread %v\n", est, spread)
	set, val, err := pool.GreedyBoostContext(ctx, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "greedy %v %v\n", set, val)
	set, val, err = pool.GreedyBoostAmongContext(ctx, 3, []int32{1, 3, 5, 9, 13, 17, 21, 25, 29, 33})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "among %v %v\n", set, val)

	samples, deltas, err := m.EstimateSamples(g, seeds, []int32{3, 11, 19}, 100, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "samples %v\ndeltas %v\n", samples, deltas)
	return b.String()
}

func TestGoldenDigests(t *testing.T) {
	for _, seed := range []uint64{5, 6} {
		for _, workers := range []int{1, 2, 7} {
			sum := sha256.Sum256([]byte(goldenTranscript(t, seed, workers)))
			if got := fmt.Sprintf("%x", sum); got != goldenKThresh[seed] {
				t.Errorf("seed %d workers %d: digest %s, want %s", seed, workers, got, goldenKThresh[seed])
			}
		}
	}
}
