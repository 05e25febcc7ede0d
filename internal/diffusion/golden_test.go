package diffusion

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// goldenIC pins sha256 digests of every Monte-Carlo estimator's output
// and of a Simulator run on one stream, keyed by worker count (the
// mean estimators split one root stream per worker, so their sums
// depend on the partition). The digests were recorded once and must
// never be edited: they anchor the samplers' exact draw sequences,
// which a rewrite of the per-edge loops must keep. The graph mixes in
// p = 0 and p = 1 edges, on which Bernoulli draws nothing.
var goldenIC = map[int]string{
	1: "5872615b3cbebcbc7d6d324a902931705242431a9ddf105d595d1cc940685851",
	2: "383b0b4ef903db9d7dbd5bbdca12cfecdcb710729f93e1a043393f282d440f44",
	7: "2492f762f6c110842435acf213d7bbaed515f4eb8593b84a45de78749a94f2b3",
}

// goldenICTranscript runs the pinned estimator sequence and returns its
// text transcript.
func goldenICTranscript(t *testing.T, workers int) string {
	t.Helper()
	g := testutil.EdgeCaseGraph(rng.New(2024), 60, 240, 0.3)
	seeds := []int32{0, 9, 31}
	boost := []int32{2, 5, 11, 17, 23}
	opt := Options{Sims: 300, Seed: 41, Workers: workers}
	var b strings.Builder
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}

	spread, err := EstimateSpread(g, seeds, boost, opt)
	check(err)
	plain, err := EstimateSpread(g, seeds, nil, opt)
	check(err)
	delta, err := EstimateBoost(g, seeds, boost, opt)
	check(err)
	fmt.Fprintf(&b, "spread %v plain %v boost %v\n", spread, plain, delta)
	act, err := EstimateActivation(g, seeds, boost, opt)
	check(err)
	fmt.Fprintf(&b, "activation %v\n", act)
	senders, err := EstimateBoostTarget(g, seeds, boost, BoostSenders, opt)
	check(err)
	fmt.Fprintf(&b, "senders %v\n", senders)
	for _, bs := range [][]int32{boost, nil} {
		sp, dl, err := EstimateSamples(g, seeds, bs, opt)
		check(err)
		fmt.Fprintf(&b, "samples %v\ndeltas %v\n", sp, dl)
	}

	sim := NewSimulator(g)
	mask := MaskFromSet(g.N(), boost)
	r := rng.New(uint64(workers))
	for i := 0; i < 60; i++ {
		base, boosted := sim.PairOnce(seeds, mask, r)
		fmt.Fprintf(&b, "pair %d %d spread %d %d\n", base, boosted,
			sim.SpreadOnce(seeds, mask, r), sim.SpreadOnce(seeds, nil, r))
	}
	base, boosted := sim.PairOnce(seeds, nil, r)
	fmt.Fprintf(&b, "pair nil %d %d stream end %d\n", base, boosted, r.Uint64())
	return b.String()
}

func TestGoldenDigests(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		sum := sha256.Sum256([]byte(goldenICTranscript(t, workers)))
		if got := fmt.Sprintf("%x", sum); got != goldenIC[workers] {
			t.Errorf("workers %d: digest %s, want %s", workers, got, goldenIC[workers])
		}
	}
}
