package sir

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// goldenSIR pins sha256 digests of everything a boosted-SIR pool
// computes — its contents, estimates, selections and the tier-1 sample
// vectors — for two pool seeds. The digests were recorded once and
// must never be edited: they anchor the pool's answers independently
// of the naive references, which a refactor can move together with the
// fast paths. Each digest must come out the same at worker counts 1, 2
// and 7. The transcript also prints MemoryEstimate: the digests were
// re-pinned once, when the pool began counting its bytes by capacity,
// after checking that no line but the mem line changed.
var goldenSIR = map[uint64]string{
	5: "14cbe6275b2b4ba7b8af84caabcd6fbd90850bb7c046f6ef64dca1b8e94b28ed",
	6: "b799518466a8d1c8a33b9b3363286b85180c49a2a9531e9114a78fb9a7eeff9f",
}

// dumpPool renders the pool contents in a layout-independent text
// form: profile seeds, each profile's base active set and frontier, and
// the frontier index's posting lists.
func dumpPool(p *Pool) string {
	var b strings.Builder
	for pi := 0; pi < p.NumProfiles(); pi++ {
		pr := p.Profile(pi)
		fmt.Fprintf(&b, "profile %d seed %d\n active %v\n front %v\n",
			pi, pr.Seed, pr.Active, pr.Front)
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
	g := testutil.RandomGraph(r, 40, 160, 0.5)
	seeds := []int32{0, 7}
	m := New(0.4)
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
			if got := fmt.Sprintf("%x", sum); got != goldenSIR[seed] {
				t.Errorf("seed %d workers %d: digest %s, want %s", seed, workers, got, goldenSIR[seed])
			}
		}
	}
}
