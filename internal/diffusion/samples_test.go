package diffusion

import (
	"math"
	"testing"

	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/stats"
	"github.com/kboost/kboost/internal/testutil"
)

// The per-sim sample vectors must be bit-identical for every worker
// count: each simulation owns a stateless stream keyed by its index.
func TestEstimateSamplesWorkerInvariance(t *testing.T) {
	r := rng.New(31)
	g := testutil.RandomGraph(r, 40, 120, 0.4)
	seeds := []int32{0, 3}
	boost := []int32{7, 9}
	var ref []float64
	var refDelta []float64
	for _, workers := range []int{1, 2, 3, 7, 16} {
		spread, delta, err := EstimateSamples(g, seeds, boost, Options{Sims: 101, Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refDelta = spread, delta
			continue
		}
		for i := range ref {
			if spread[i] != ref[i] || delta[i] != refDelta[i] {
				t.Fatalf("workers=%d: sample %d diverged: (%v,%v) vs (%v,%v)",
					workers, i, spread[i], delta[i], ref[i], refDelta[i])
			}
		}
	}
}

// The mean estimators run on EstimateSamples' loop, so with the same
// options their answers are exactly the means of its sample vectors:
// EstimateBoost of the delta vector, and the unboosted EstimateSpread
// of the spread vector without a boost set. With a boost set the spread
// vector comes from PairOnce and EstimateSpread from SpreadOnce, which
// consume their streams differently, so those two agree statistically.
func TestEstimateSamplesMatchesEstimateSpread(t *testing.T) {
	r := rng.New(32)
	g := testutil.RandomGraph(r, 40, 120, 0.3)
	seeds := []int32{1, 2}
	boost := []int32{5, 6}
	opt := Options{Sims: 20000, Seed: 9}
	spread, delta, err := EstimateSamples(g, seeds, boost, opt)
	if err != nil {
		t.Fatal(err)
	}
	ss := stats.Summarize(spread)
	wantSpread, err := EstimateSpread(g, seeds, boost, Options{Sims: opt.Sims, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ss.Mean-wantSpread) > 4*ss.CI95()+0.05 {
		t.Fatalf("sampled spread %v vs %v (CI %v)", ss.Mean, wantSpread, ss.CI95())
	}
	wantDelta, err := EstimateBoost(g, seeds, boost, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := mean(delta); got != wantDelta {
		t.Fatalf("mean of the delta samples %v, EstimateBoost %v", got, wantDelta)
	}
	plain, zero, err := EstimateSamples(g, seeds, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantPlain, err := EstimateSpread(g, seeds, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := mean(plain); got != wantPlain {
		t.Fatalf("mean of the unboosted spread samples %v, EstimateSpread %v", got, wantPlain)
	}
	// Without a boost set the delta vector is identically zero.
	for i, d := range zero {
		if d != 0 {
			t.Fatalf("delta[%d] = %v without boost set", i, d)
		}
	}
}

// mean sums xs in index order and divides by its length: exact for
// integer-valued samples whose sum stays below 2^53.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
