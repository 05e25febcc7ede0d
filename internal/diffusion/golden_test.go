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
// and of a Simulator run on one stream. Every estimator draws
// simulation i from rng.StreamSeed(opt.Seed, i), so its lines are the
// same at every worker count; the digests are keyed by worker count
// only because the closing single-stream run draws from
// rng.New(workers). The digests were re-pinned once, when the mean
// estimators moved from per-worker split streams to one stream per
// simulation (their lines changed, the samples, deltas and pair lines
// did not), and must otherwise never be edited: they anchor the
// samplers' exact draw sequences, which a rewrite of the per-edge loops
// must keep. The graph mixes in p = 0 and p = 1 edges, on which
// Bernoulli draws nothing.
var goldenIC = map[int]string{
	1: "fc85334d0f7cbb80d375d7415887e2bb211f17f68f640d374feb7c428f0cf6f5",
	2: "dd1776235e07daa42c543a5a1fb7afa9408b015cd16c52446fa9591e9d44b19a",
	7: "4f460f8a39afe1528194057223f0f1266d23982b9eb64bdbcb68bc028e5e63d7",
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
