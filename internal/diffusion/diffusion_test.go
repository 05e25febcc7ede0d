package diffusion

import (
	"math"
	"testing"

	"github.com/kboost/kboost/internal/exact"
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

const simTol = 0.02 // absolute tolerance for Monte-Carlo vs exact values

func estimate(t *testing.T, g *graph.Graph, seeds, boost []int32) float64 {
	t.Helper()
	v, err := EstimateSpread(g, seeds, boost, Options{Sims: 200000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestFig1 reproduces the σ/Δ table of the paper's Figure 1.
func TestFig1SpreadTable(t *testing.T) {
	g, seeds := testutil.Fig1()
	cases := []struct {
		boost []int32
		want  float64
	}{
		{nil, 1.22},
		{[]int32{1}, 1.44},
		{[]int32{2}, 1.24},
		{[]int32{1, 2}, 1.48},
	}
	for _, c := range cases {
		got := estimate(t, g, seeds, c.boost)
		if math.Abs(got-c.want) > simTol {
			t.Errorf("σ_S(%v) = %v, want %v", c.boost, got, c.want)
		}
	}
}

func TestFig1BoostTable(t *testing.T) {
	g, seeds := testutil.Fig1()
	cases := []struct {
		boost []int32
		want  float64
	}{
		{[]int32{1}, 0.22},
		{[]int32{2}, 0.02},
		{[]int32{1, 2}, 0.26},
	}
	for _, c := range cases {
		got, err := EstimateBoost(g, seeds, c.boost, Options{Sims: 400000, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > simTol {
			t.Errorf("Δ_S(%v) = %v, want %v", c.boost, got, c.want)
		}
	}
}

func TestSeedsAlwaysActive(t *testing.T) {
	g, seeds := testutil.Fig1()
	got := estimate(t, g, seeds, nil)
	if got < 1 {
		t.Fatalf("spread %v below seed count", got)
	}
}

func TestSpreadBounds(t *testing.T) {
	r := rng.New(99)
	g := testutil.RandomGraph(r, 8, 12, 0.8)
	seeds := []int32{0, 3}
	sim := NewSimulator(g)
	for i := 0; i < 200; i++ {
		n := sim.SpreadOnce(seeds, nil, r)
		if n < len(seeds) || n > g.N() {
			t.Fatalf("spread %d outside [%d,%d]", n, len(seeds), g.N())
		}
	}
}

func TestMonteCarloMatchesExact(t *testing.T) {
	r := rng.New(123)
	for trial := 0; trial < 5; trial++ {
		g := testutil.RandomGraph(r, 7, 10, 0.7)
		seeds := testutil.RandomSeedSet(r, g.N(), 2)
		nonSeeds := testutil.NonSeeds(g.N(), seeds)
		boost := nonSeeds[:min(2, len(nonSeeds))]

		want, err := exact.Spread(g, seeds, boost)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EstimateSpread(g, seeds, boost, Options{Sims: 300000, Seed: uint64(trial) + 1})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 0.03 {
			t.Fatalf("trial %d: MC spread %v, exact %v", trial, got, want)
		}
	}
}

func TestEstimateBoostMatchesExact(t *testing.T) {
	r := rng.New(321)
	for trial := 0; trial < 5; trial++ {
		g := testutil.RandomGraph(r, 7, 10, 0.7)
		seeds := testutil.RandomSeedSet(r, g.N(), 1)
		nonSeeds := testutil.NonSeeds(g.N(), seeds)
		boost := nonSeeds[:min(3, len(nonSeeds))]

		want, err := exact.Boost(g, seeds, boost)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EstimateBoost(g, seeds, boost, Options{Sims: 300000, Seed: uint64(trial) + 17})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("trial %d: MC boost %v, exact %v", trial, got, want)
		}
	}
}

// PairOnce must couple the two worlds: the boosted spread can never be
// smaller than the base spread in the same world.
func TestPairCoupling(t *testing.T) {
	r := rng.New(555)
	g := testutil.RandomGraph(r, 10, 14, 0.8)
	seeds := []int32{0}
	mask := MaskFromSet(g.N(), []int32{1, 2, 3})
	sim := NewSimulator(g)
	for i := 0; i < 2000; i++ {
		base, boosted := sim.PairOnce(seeds, mask, r)
		if boosted < base {
			t.Fatalf("iteration %d: boosted %d < base %d", i, boosted, base)
		}
		if base < 1 {
			t.Fatalf("iteration %d: base %d lost the seed", i, base)
		}
	}
}

// Boosting a superset of nodes can only increase the expected spread.
func TestBoostMonotonicity(t *testing.T) {
	r := rng.New(777)
	g := testutil.RandomGraph(r, 8, 12, 0.6)
	seeds := []int32{0}
	small := []int32{1}
	large := []int32{1, 2, 3}
	sSmall, err := exact.Spread(g, seeds, small)
	if err != nil {
		t.Fatal(err)
	}
	sLarge, err := exact.Spread(g, seeds, large)
	if err != nil {
		t.Fatal(err)
	}
	if sLarge+1e-12 < sSmall {
		t.Fatalf("exact spread decreased when boosting more nodes: %v -> %v", sSmall, sLarge)
	}
	mSmall := estimate(t, g, seeds, small)
	mLarge := estimate(t, g, seeds, large)
	if mLarge+simTol < mSmall {
		t.Fatalf("MC spread decreased when boosting more nodes: %v -> %v", mSmall, mLarge)
	}
}

func TestEstimateActivation(t *testing.T) {
	g, seeds := testutil.Fig1()
	probs, err := EstimateActivation(g, seeds, nil, Options{Sims: 200000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0.2, 0.02}
	for v, w := range want {
		if math.Abs(probs[v]-w) > simTol {
			t.Errorf("activation[%d] = %v, want %v", v, probs[v], w)
		}
	}
}

func TestEstimateActivationWithBoost(t *testing.T) {
	g, seeds := testutil.Fig1()
	probs, err := EstimateActivation(g, seeds, []int32{1}, Options{Sims: 200000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0.4, 0.04}
	for v, w := range want {
		if math.Abs(probs[v]-w) > simTol {
			t.Errorf("activation[%d] = %v, want %v", v, probs[v], w)
		}
	}
}

func TestValidation(t *testing.T) {
	g, seeds := testutil.Fig1()
	if _, err := EstimateSpread(g, []int32{-1}, nil, Options{Sims: 10}); err == nil {
		t.Fatal("negative seed accepted")
	}
	if _, err := EstimateSpread(g, []int32{99}, nil, Options{Sims: 10}); err == nil {
		t.Fatal("out-of-range seed accepted")
	}
	if _, err := EstimateSpread(g, seeds, []int32{99}, Options{Sims: 10}); err == nil {
		t.Fatal("out-of-range boost node accepted")
	}
	if _, err := EstimateBoost(g, seeds, []int32{-2}, Options{Sims: 10}); err == nil {
		t.Fatal("negative boost node accepted")
	}
	if _, err := EstimateActivation(g, []int32{-1}, nil, Options{Sims: 10}); err == nil {
		t.Fatal("EstimateActivation accepted bad seed")
	}
}

// Results must be identical for a fixed seed and worker count.
func TestDeterminismFixedWorkers(t *testing.T) {
	r := rng.New(31)
	g := testutil.RandomGraph(r, 30, 60, 0.3)
	seeds := []int32{0, 1}
	boost := []int32{5, 6}
	a, err := EstimateBoost(g, seeds, boost, Options{Sims: 5000, Seed: 42, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateBoost(g, seeds, boost, Options{Sims: 5000, Seed: 42, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed/workers gave %v and %v", a, b)
	}
}

// Every mean estimator draws simulation i from its own stream, so its
// answer is bit-identical at every worker count.
func TestWorkerCountConsistency(t *testing.T) {
	r := rng.New(32)
	g := testutil.RandomGraph(r, 30, 60, 0.3)
	seeds := []int32{0, 1}
	boost := []int32{2, 3}
	estimators := map[string]func(Options) (float64, error){
		"EstimateSpread": func(opt Options) (float64, error) {
			return EstimateSpread(g, seeds, boost, opt)
		},
		"EstimateBoost": func(opt Options) (float64, error) {
			return EstimateBoost(g, seeds, boost, opt)
		},
		"EstimateBoostTarget(BoostSenders)": func(opt Options) (float64, error) {
			return EstimateBoostTarget(g, seeds, boost, BoostSenders, opt)
		},
	}
	for name, estimate := range estimators {
		a, err := estimate(Options{Sims: 100000, Seed: 42, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := estimate(Options{Sims: 100000, Seed: 42, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: %v at 1 worker, %v at 4", name, a, b)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
