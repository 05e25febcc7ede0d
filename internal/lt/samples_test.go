package lt

import (
	"math"
	"testing"

	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/stats"
	"github.com/kboost/kboost/internal/testutil"
)

func TestEstimateSamplesWorkerInvariance(t *testing.T) {
	r := rng.New(41)
	g := testutil.RandomGraph(r, 40, 120, 0.4)
	seeds := []int32{0, 3}
	boost := []int32{7, 9}
	var ref, refDelta []float64
	for _, workers := range []int{1, 2, 5, 13} {
		spread, delta, err := EstimateSamples(g, seeds, boost, Options{Sims: 97, Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refDelta = spread, delta
			continue
		}
		for i := range ref {
			if spread[i] != ref[i] || delta[i] != refDelta[i] {
				t.Fatalf("workers=%d: sample %d diverged", workers, i)
			}
		}
	}
}

func TestEstimateSamplesMatchesEstimateSpread(t *testing.T) {
	r := rng.New(42)
	g := testutil.RandomGraph(r, 40, 120, 0.3)
	seeds := []int32{1, 2}
	boost := []int32{5, 6}
	const sims = 20000
	spread, delta, err := EstimateSamples(g, seeds, boost, Options{Sims: sims, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ss, ds := stats.Summarize(spread), stats.Summarize(delta)
	wantSpread, err := EstimateSpread(g, seeds, boost, Options{Sims: sims, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	wantDelta, err := EstimateBoost(g, seeds, boost, Options{Sims: sims, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ss.Mean-wantSpread) > 4*ss.CI95()+0.05 {
		t.Fatalf("sampled spread %v vs %v (CI %v)", ss.Mean, wantSpread, ss.CI95())
	}
	if math.Abs(ds.Mean-wantDelta) > 4*ds.CI95()+0.1 {
		t.Fatalf("sampled delta %v vs %v (CI %v)", ds.Mean, wantDelta, ds.CI95())
	}
}

// EstimateSpread runs on EstimateSamples' loop, so with the same options
// it is exactly the mean of the spread samples, at any worker count.
func TestEstimateSpreadIsSampleMean(t *testing.T) {
	r := rng.New(43)
	g := testutil.RandomGraph(r, 40, 120, 0.3)
	seeds := []int32{1, 2}
	boost := []int32{5, 6}
	spread, _, err := EstimateSamples(g, seeds, boost, Options{Sims: 5000, Seed: 9, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, x := range spread {
		sum += x
	}
	want := sum / float64(len(spread))
	for _, workers := range []int{1, 2, 7} {
		got, err := EstimateSpread(g, seeds, boost, Options{Sims: 5000, Seed: 9, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("workers %d: EstimateSpread %v, mean of the spread samples %v", workers, got, want)
		}
	}
}
