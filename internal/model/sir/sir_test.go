package sir

import (
	"context"
	"fmt"
	"testing"

	"github.com/kboost/kboost/internal/model/profile"
	"github.com/kboost/kboost/internal/model/profile/profiletest"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// randomSeedSet draws 1-3 distinct seed nodes.
func randomSeedSet(r *rng.Source, n int) []int32 {
	numSeeds := 1 + r.Intn(3)
	seeds := make([]int32, 0, numSeeds)
	for len(seeds) < numSeeds {
		s := int32(r.Intn(n))
		dup := false
		for _, prev := range seeds {
			dup = dup || prev == s
		}
		if !dup {
			seeds = append(seeds, s)
		}
	}
	return seeds
}

// recoveries samples the recovery knob across its range, including the
// γ = 1 endpoint where durations degenerate to a single round.
var recoveries = []float64{0.2, 0.5, 1.0}

// TestPoolEstimateMatchesNaive pins the incremental warm estimator to
// the from-scratch re-simulation of the same percolation profiles:
// identical possible worlds must give bit-identical spreads, and the
// coupled boost delta must never be negative (monotone coupling).
func TestPoolEstimateMatchesNaive(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 12; trial++ {
		n := 10 + r.Intn(20)
		g := testutil.RandomGraph(r, n, n+r.Intn(3*n), 0.5)
		seeds := randomSeedSet(r, n)
		m := New(recoveries[trial%len(recoveries)])
		pool, err := m.NewPool(g, seeds, uint64(trial)+11, 1+trial%4)
		if err != nil {
			t.Fatal(err)
		}
		extend(t, pool, 400)
		for bt := 0; bt < 5; bt++ {
			boost := make([]int32, 0, 3)
			for len(boost) < 1+r.Intn(3) {
				boost = append(boost, int32(r.Intn(n)))
			}
			warm, err := pool.EstimateSpread(boost)
			if err != nil {
				t.Fatal(err)
			}
			naive := pool.estimateSpreadNaive(boost)
			if warm != naive {
				t.Fatalf("trial %d boost %v: warm %v != naive %v", trial, boost, warm, naive)
			}
			delta, err := pool.EstimateBoost(boost)
			if err != nil {
				t.Fatal(err)
			}
			if delta < 0 {
				t.Fatalf("trial %d boost %v: negative coupled delta %v", trial, boost, delta)
			}
		}
		// The empty boost set must reproduce the cached base spread
		// exactly, and so must the naive reference.
		empty, err := pool.EstimateSpread(nil)
		if err != nil {
			t.Fatal(err)
		}
		if empty != pool.BaseSpread() || empty != pool.estimateSpreadNaive(nil) {
			t.Fatalf("trial %d: empty-boost spread %v, base %v", trial, empty, pool.BaseSpread())
		}
	}
}

// TestPoolGreedyMatchesNaive is the equivalence property test for the
// pooled selection subsystem: across random pools, recovery values, k
// values and interleaved growth, the kernel's lazy-greedy GreedyBoost
// must return exactly the picks and estimate of the retained
// full-resimulation reference.
func TestPoolGreedyMatchesNaive(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 12; trial++ {
		n := 10 + r.Intn(25)
		g := testutil.RandomGraph(r, n, n+r.Intn(4*n), 0.5)
		seeds := randomSeedSet(r, n)
		m := New(recoveries[trial%len(recoveries)])
		pool, err := m.NewPool(g, seeds, uint64(trial)+1, 1+trial%3)
		if err != nil {
			t.Fatal(err)
		}
		target := 0
		for stage := 0; stage < 2; stage++ {
			target += 100 + r.Intn(300)
			extend(t, pool, target)
			for _, k := range []int{1, 3} {
				candCap := k + r.Intn(2*k)
				fast, fastEst, err := pool.GreedyBoostContext(context.Background(), k, candCap)
				if err != nil {
					t.Fatal(err)
				}
				slow, slowEst, err := pool.greedyBoostNaive(k, candCap)
				if err != nil {
					t.Fatal(err)
				}
				if fastEst != slowEst || fmt.Sprint(fast) != fmt.Sprint(slow) {
					t.Fatalf("trial %d stage %d k=%d cap=%d: incremental %v/%v != naive %v/%v",
						trial, stage, k, candCap, fast, fastEst, slow, slowEst)
				}
			}
		}
	}
}

// TestPoolGreedyMatchesNaiveParallel forces the sharded estimate and
// candidate-evaluation paths (normally reserved for large batches) and
// re-checks equivalence with the naive reference.
func TestPoolGreedyMatchesNaiveParallel(t *testing.T) {
	oldSel, oldEst := profile.SelectParallelMin, profile.EstimateParallelMin
	profile.SelectParallelMin, profile.EstimateParallelMin = 1, 1
	defer func() { profile.SelectParallelMin, profile.EstimateParallelMin = oldSel, oldEst }()

	r := rng.New(55)
	for trial := 0; trial < 6; trial++ {
		g := testutil.RandomGraph(r, 15+r.Intn(15), 60+r.Intn(60), 0.5)
		m := New(recoveries[trial%len(recoveries)])
		pool, err := m.NewPool(g, []int32{0, 1}, uint64(trial)+3, 2+trial%3)
		if err != nil {
			t.Fatal(err)
		}
		extend(t, pool, 500)
		fast, fastEst, err := pool.GreedyBoostContext(context.Background(), 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		slow, slowEst, err := pool.greedyBoostNaive(3, 0)
		if err != nil {
			t.Fatal(err)
		}
		if fastEst != slowEst || fmt.Sprint(fast) != fmt.Sprint(slow) {
			t.Fatalf("trial %d: parallel %v/%v != naive %v/%v", trial, fast, fastEst, slow, slowEst)
		}
	}
}

// TestGreedyBoostAmongMatchesDefault pins the explicit-candidate
// variant's contract: handed the default ranking's own list it is
// exactly GreedyBoost, and seeds or out-of-range ids in the list are
// ignored rather than selectable.
func TestGreedyBoostAmongMatchesDefault(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 6; trial++ {
		n := 12 + r.Intn(20)
		g := testutil.RandomGraph(r, n, n+r.Intn(3*n), 0.5)
		seeds := randomSeedSet(r, n)
		pool, err := New(0.5).NewPool(g, seeds, uint64(trial)+5, 2)
		if err != nil {
			t.Fatal(err)
		}
		extend(t, pool, 300)
		k, candCap := 3, 6
		want, wantEst, err := pool.GreedyBoostContext(context.Background(), k, candCap)
		if err != nil {
			t.Fatal(err)
		}
		cands := profile.Candidates(g, pool.SeedMask(), k, candCap)
		dirty := append(append([]int32{seeds[0], -1, int32(n) + 7}, cands...), seeds[0])
		got, gotEst, err := pool.GreedyBoostAmongContext(context.Background(), k, dirty)
		if err != nil {
			t.Fatal(err)
		}
		if gotEst != wantEst || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: among %v/%v != default %v/%v", trial, got, gotEst, want, wantEst)
		}
		for _, v := range got {
			if pool.SeedMask()[v] {
				t.Fatalf("trial %d: picked seed %d", trial, v)
			}
		}
	}
}

// TestPoolWorkerCountInvariance pins the contract the Engine relies on:
// pool contents, estimates and selections are bit-identical across
// worker counts 1, 2 and 7 (profiles are seeded serially, worlds are
// stateless hashes, every parallel phase sums integers).
func TestPoolWorkerCountInvariance(t *testing.T) {
	r := rng.New(21)
	g := testutil.RandomGraph(r, 25, 90, 0.5)
	seeds := []int32{0, 5}
	m := New(0.4)
	type result struct {
		base, est float64
		picks     string
		pickEst   float64
	}
	run := func(workers int) result {
		pool, err := m.NewPool(g, seeds, 9, workers)
		if err != nil {
			t.Fatal(err)
		}
		extend(t, pool, 700)
		est, err := pool.EstimateSpread([]int32{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		picks, pickEst, err := pool.GreedyBoostContext(context.Background(), 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		return result{pool.BaseSpread(), est, fmt.Sprint(picks), pickEst}
	}
	want := run(1)
	for _, workers := range []int{2, 7} {
		if got := run(workers); got != want {
			t.Fatalf("workers=%d: %+v != single-worker %+v", workers, got, want)
		}
	}
}

// TestPoolExtendMatchesOneShot verifies that staged growth yields the
// same profiles as generating everything in one Extend call, including
// increments smaller than the worker count (idle trailing shards).
func TestPoolExtendMatchesOneShot(t *testing.T) {
	r := rng.New(41)
	g := testutil.RandomGraph(r, 20, 70, 0.5)
	m := New(0.5)
	staged, err := m.NewPool(g, []int32{0}, 17, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []int{3, 150, 400, 650} {
		extend(t, staged, target)
	}
	oneshot, err := m.NewPool(g, []int32{0}, 17, 3)
	if err != nil {
		t.Fatal(err)
	}
	extend(t, oneshot, 650)
	if staged.BaseSpread() != oneshot.BaseSpread() {
		t.Fatalf("base spread: staged %v != oneshot %v", staged.BaseSpread(), oneshot.BaseSpread())
	}
	a, ea, err := staged.GreedyBoostContext(context.Background(), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, eb, err := oneshot.GreedyBoostContext(context.Background(), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ea != eb || fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("staged selection %v/%v != oneshot %v/%v", a, ea, b, eb)
	}
}

// TestPoolGenerationAdvances pins the result-cache key contract: Extend
// that adds profiles bumps Generation; estimates and selections do not.
func TestPoolGenerationAdvances(t *testing.T) {
	r := rng.New(13)
	g := testutil.RandomGraph(r, 15, 40, 0.5)
	pool, err := New(0.5).NewPool(g, []int32{0}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Generation() != 0 || pool.NumProfiles() != 0 {
		t.Fatalf("fresh pool: generation %d profiles %d, want 0/0", pool.Generation(), pool.NumProfiles())
	}
	extend(t, pool, 200)
	gen := pool.Generation()
	if gen == 0 || pool.NumProfiles() != 200 {
		t.Fatalf("after Extend: generation %d profiles %d", gen, pool.NumProfiles())
	}
	if _, _, err := pool.GreedyBoostContext(context.Background(), 2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.EstimateSpread([]int32{1}); err != nil {
		t.Fatal(err)
	}
	if pool.Generation() != gen {
		t.Fatal("read-only queries changed the generation")
	}
	extend(t, pool, 100) // no-op: target below current size
	if pool.Generation() != gen {
		t.Fatal("no-op Extend bumped the generation")
	}
	if pool.MemoryEstimate() <= 0 {
		t.Fatal("memory estimate not positive for a grown pool")
	}
}

// TestPoolValidation covers the error paths: bad nodes, empty pools,
// bad k.
func TestPoolValidation(t *testing.T) {
	g, _ := testutil.Fig1()
	m := New(0.5)
	if _, err := m.NewPool(g, []int32{-1}, 1, 1); err == nil {
		t.Fatal("bad seed accepted")
	}
	pool, err := m.NewPool(g, []int32{0}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.EstimateSpread(nil); err == nil {
		t.Fatal("estimate on empty pool accepted")
	}
	if _, _, err := pool.GreedyBoostContext(context.Background(), 1, 0); err == nil {
		t.Fatal("selection on empty pool accepted")
	}
	extend(t, pool, 50)
	if _, err := pool.EstimateSpread([]int32{9}); err == nil {
		t.Fatal("bad boost node accepted")
	}
	if _, _, err := pool.GreedyBoostContext(context.Background(), 0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// TestEstimateSamplesWorkerInvariance pins the tier-1 contract: the
// sample vectors are bit-identical across worker counts 1, 2 and 7, and
// the coupled deltas are never negative.
func TestEstimateSamplesWorkerInvariance(t *testing.T) {
	r := rng.New(31)
	g := testutil.RandomGraph(r, 30, 120, 0.5)
	m := New(0.3)
	seeds, boost := []int32{0, 3}, []int32{5, 9}
	wantS, wantD, err := m.EstimateSamples(g, seeds, boost, 200, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 7} {
		gotS, gotD, err := m.EstimateSamples(g, seeds, boost, 200, 42, workers)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(gotS) != fmt.Sprint(wantS) || fmt.Sprint(gotD) != fmt.Sprint(wantD) {
			t.Fatalf("workers=%d: samples differ from single-worker run", workers)
		}
	}
	for i, d := range wantD {
		if d < 0 {
			t.Fatalf("sim %d: negative coupled delta %v", i, d)
		}
	}
	// Empty boost: deltas all zero, spread still populated.
	_, zeroD, err := m.EstimateSamples(g, seeds, nil, 50, 42, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range zeroD {
		if d != 0 {
			t.Fatalf("sim %d: empty boost produced delta %v", i, d)
		}
	}
}

// TestRecoveryOneMatchesSingleRound pins the γ = 1 endpoint: every
// duration is exactly one round, so the percolation transmissibility
// reduces to the raw edge probability and boosting a node's in-edges
// uses the raw boosted probability — the spread must be bounded by the
// graph size and monotone in the boost set on every profile.
func TestRecoveryOneMatchesSingleRound(t *testing.T) {
	m := New(1.0)
	for ps := uint64(1); ps < 50; ps++ {
		for u := int32(0); u < 20; u++ {
			if d := m.duration(ps, u); d != 1 {
				t.Fatalf("recovery=1: duration(%d,%d)=%d, want 1", ps, u, d)
			}
		}
	}
	p := 0.3 // variable so the expectation uses runtime float64 arithmetic like transQ
	if q, want := transQ(p, 1), 1-(1-p); q != want {
		t.Fatalf("transQ(0.3,1)=%v, want %v", q, want)
	}
	if q := transQ(0.5, 2); q != 0.75 {
		t.Fatalf("transQ(0.5,2)=%v, want 0.75", q)
	}
}

// TestDeltaGainsContract holds Delta's greedy half to the shared
// contract oracle (profiletest.CheckGains) on tiny random graphs, with
// and without impossible, certain and boost-only edges, and random
// boost sets.
func TestDeltaGainsContract(t *testing.T) {
	r := rng.New(161)
	for trial := 0; trial < 40; trial++ {
		n := 6 + r.Intn(7)
		graphOf := testutil.RandomGraph
		if trial%2 == 1 {
			graphOf = testutil.EdgeCaseGraph
		}
		g := graphOf(r, n, 3*n+r.Intn(2*n), 0.8)
		seeds := testutil.RandomSeedSet(r, n, 1+r.Intn(3))
		m := New(recoveries[trial%len(recoveries)])
		pool, err := m.NewPool(g, seeds, uint64(trial)+9, 1+trial%3)
		if err != nil {
			t.Fatal(err)
		}
		extend(t, pool, 60)
		nonSeeds := testutil.NonSeeds(n, seeds)
		var bset []int32
		for _, i := range r.Sample(len(nonSeeds), r.Intn(4)) {
			bset = append(bset, nonSeeds[i])
		}
		if err := profiletest.CheckGains(pool.Pool, bset); err != nil {
			t.Fatalf("trial %d γ=%v: %v", trial, m.Recovery(), err)
		}
	}
}
