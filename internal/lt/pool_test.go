package lt

import (
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

// TestPoolGreedyMatchesNaive is the equivalence property test for the
// pooled selection subsystem: across random pools, k values and
// interleaved growth, the kernel's lazy-greedy GreedyBoost must
// return exactly the picks and estimate of the retained full-rescan
// reference.
func TestPoolGreedyMatchesNaive(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 20; trial++ {
		n := 10 + r.Intn(25)
		m := n + r.Intn(4*n)
		g := testutil.RandomGraph(r, n, m, 0.5)
		seeds := randomSeedSet(r, n)
		pool, err := NewPool(g, seeds, uint64(trial)+1, 1+trial%3)
		if err != nil {
			t.Fatal(err)
		}
		// Grow in stages, checking equivalence between every stage so the
		// frontier index is exercised after each incremental extension.
		target := 0
		for stage := 0; stage < 3; stage++ {
			target += 100 + r.Intn(400)
			pool.Extend(target)
			for _, k := range []int{1, 2, 4} {
				candCap := k + r.Intn(2*k)
				fast, fastEst, err := pool.GreedyBoost(k, candCap)
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

// TestGreedyBoostAmongMatchesDefault pins the explicit-candidate
// variant's contract: handed the default ranking's own list it is
// exactly GreedyBoost, it never picks outside the list, and seeds or
// out-of-range ids in the list are ignored rather than selectable.
func TestGreedyBoostAmongMatchesDefault(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 8; trial++ {
		n := 12 + r.Intn(20)
		g := testutil.RandomGraph(r, n, n+r.Intn(3*n), 0.5)
		seeds := randomSeedSet(r, n)
		pool, err := NewPool(g, seeds, uint64(trial)+5, 2)
		if err != nil {
			t.Fatal(err)
		}
		pool.Extend(300)
		k, candCap := 3, 6
		want, wantEst, err := pool.GreedyBoost(k, candCap)
		if err != nil {
			t.Fatal(err)
		}
		cands := profile.Candidates(g, pool.kernel.SeedMask(), k, candCap)
		// Polluted copy: seeds and junk ids must be filtered out.
		dirty := append(append([]int32{seeds[0], -1, int32(n) + 7}, cands...), seeds[0])
		got, gotEst, err := pool.GreedyBoostAmong(k, dirty)
		if err != nil {
			t.Fatal(err)
		}
		if gotEst != wantEst || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: among %v/%v != default %v/%v", trial, got, gotEst, want, wantEst)
		}
		for _, v := range got {
			if pool.kernel.SeedMask()[v] {
				t.Fatalf("trial %d: picked seed %d", trial, v)
			}
		}
	}
}

// TestPoolGreedyMatchesNaiveParallel forces the sharded evaluation path
// (normally reserved for large batches) and re-checks equivalence with
// the naive reference.
func TestPoolGreedyMatchesNaiveParallel(t *testing.T) {
	oldSel, oldEst := profile.SelectParallelMin, profile.EstimateParallelMin
	profile.SelectParallelMin, profile.EstimateParallelMin = 1, 1
	defer func() { profile.SelectParallelMin, profile.EstimateParallelMin = oldSel, oldEst }()

	r := rng.New(55)
	for trial := 0; trial < 8; trial++ {
		g := testutil.RandomGraph(r, 15+r.Intn(15), 60+r.Intn(60), 0.5)
		pool, err := NewPool(g, []int32{0, 1}, uint64(trial)+3, 2+trial%3)
		if err != nil {
			t.Fatal(err)
		}
		pool.Extend(600)
		for _, k := range []int{3, 5} {
			fast, fastEst, err := pool.GreedyBoost(k, 0)
			if err != nil {
				t.Fatal(err)
			}
			slow, slowEst, err := pool.greedyBoostNaive(k, 0)
			if err != nil {
				t.Fatal(err)
			}
			if fastEst != slowEst || fmt.Sprint(fast) != fmt.Sprint(slow) {
				t.Fatalf("trial %d k=%d: parallel %v/%v != naive %v/%v", trial, k, fast, fastEst, slow, slowEst)
			}
		}
	}
}

// TestPoolEstimateMatchesNaive pins the incremental warm estimator to
// the from-scratch re-simulation of the same profiles: identical
// possible worlds must give bit-identical spreads.
func TestPoolEstimateMatchesNaive(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 10; trial++ {
		n := 10 + r.Intn(20)
		g := testutil.RandomGraph(r, n, n+r.Intn(3*n), 0.5)
		seeds := randomSeedSet(r, n)
		pool, err := NewPool(g, seeds, uint64(trial)+11, 1+trial%4)
		if err != nil {
			t.Fatal(err)
		}
		pool.Extend(400)
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

// TestPoolWorkerCountInvariance pins the contract the Engine relies on:
// pool contents, estimates and selections are bit-identical regardless
// of the worker count (profiles are seeded serially and every parallel
// phase sums integers).
func TestPoolWorkerCountInvariance(t *testing.T) {
	r := rng.New(21)
	g := testutil.RandomGraph(r, 25, 90, 0.5)
	seeds := []int32{0, 5}
	build := func(workers int) *Pool {
		pool, err := NewPool(g, seeds, 9, workers)
		if err != nil {
			t.Fatal(err)
		}
		pool.Extend(700)
		return pool
	}
	a, b := build(1), build(4)
	if a.BaseSpread() != b.BaseSpread() {
		t.Fatalf("base spread differs across workers: %v vs %v", a.BaseSpread(), b.BaseSpread())
	}
	sa, err := a.EstimateSpread([]int32{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.EstimateSpread([]int32{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if sa != sb {
		t.Fatalf("estimate differs across workers: %v vs %v", sa, sb)
	}
	ca, ea, err := a.GreedyBoost(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	cb, eb, err := b.GreedyBoost(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ea != eb || fmt.Sprint(ca) != fmt.Sprint(cb) {
		t.Fatalf("selection differs across workers: %v/%v vs %v/%v", ca, ea, cb, eb)
	}
}

// TestPoolRepeatable checks that repeated warm queries on an unchanged
// pool agree with each other (per-query state must not leak into the
// shared base state or frontier index).
func TestPoolRepeatable(t *testing.T) {
	r := rng.New(7)
	g := testutil.RandomGraph(r, 20, 70, 0.5)
	pool, err := NewPool(g, []int32{0, 1}, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	pool.Extend(800)
	first, firstEst, err := pool.GreedyBoost(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	firstSpread, err := pool.EstimateSpread([]int32{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, againEst, err := pool.GreedyBoost(3, 0)
		if err != nil {
			t.Fatal(err)
		}
		if againEst != firstEst || fmt.Sprint(again) != fmt.Sprint(first) {
			t.Fatalf("warm selection %d drifted: %v/%v vs %v/%v", i, again, againEst, first, firstEst)
		}
		spread, err := pool.EstimateSpread([]int32{2, 3})
		if err != nil {
			t.Fatal(err)
		}
		if spread != firstSpread {
			t.Fatalf("warm estimate %d drifted: %v vs %v", i, spread, firstSpread)
		}
	}
}

// TestPoolGenerationAdvances pins the result-cache key contract: Extend
// that adds profiles bumps Generation; estimates and selections do not.
func TestPoolGenerationAdvances(t *testing.T) {
	r := rng.New(13)
	g := testutil.RandomGraph(r, 15, 40, 0.5)
	pool, err := NewPool(g, []int32{0}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Generation() != 0 || pool.NumProfiles() != 0 {
		t.Fatalf("fresh pool: generation %d profiles %d, want 0/0", pool.Generation(), pool.NumProfiles())
	}
	pool.Extend(200)
	gen := pool.Generation()
	if gen == 0 || pool.NumProfiles() != 200 {
		t.Fatalf("after Extend: generation %d profiles %d", gen, pool.NumProfiles())
	}
	if _, _, err := pool.GreedyBoost(2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.EstimateSpread([]int32{1}); err != nil {
		t.Fatal(err)
	}
	if pool.Generation() != gen {
		t.Fatal("read-only queries changed the generation")
	}
	pool.Extend(100) // no-op: target below current size
	if pool.Generation() != gen {
		t.Fatal("no-op Extend bumped the generation")
	}
	if pool.MemoryEstimate() <= 0 {
		t.Fatal("memory estimate not positive for a grown pool")
	}
}

// TestPoolExtendMatchesOneShot verifies that staged growth yields the
// same profiles as generating everything in one Extend call (the
// Engine's warm-extension pattern must not change query results).
func TestPoolExtendMatchesOneShot(t *testing.T) {
	r := rng.New(41)
	g := testutil.RandomGraph(r, 20, 70, 0.5)
	staged, err := NewPool(g, []int32{0}, 17, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []int{150, 400, 650} {
		staged.Extend(target)
	}
	oneshot, err := NewPool(g, []int32{0}, 17, 3)
	if err != nil {
		t.Fatal(err)
	}
	oneshot.Extend(650)
	if staged.BaseSpread() != oneshot.BaseSpread() {
		t.Fatalf("base spread: staged %v != oneshot %v", staged.BaseSpread(), oneshot.BaseSpread())
	}
	a, ea, err := staged.GreedyBoost(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, eb, err := oneshot.GreedyBoost(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ea != eb || fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("staged selection %v/%v != oneshot %v/%v", a, ea, b, eb)
	}
}

// TestPoolValidation covers the error paths: bad nodes, empty pools,
// bad k.
func TestPoolValidation(t *testing.T) {
	g, _ := testutil.Fig1()
	if _, err := NewPool(g, []int32{-1}, 1, 1); err == nil {
		t.Fatal("bad seed accepted")
	}
	pool, err := NewPool(g, []int32{0}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.EstimateSpread(nil); err == nil {
		t.Fatal("estimate on empty pool accepted")
	}
	if _, _, err := pool.GreedyBoost(1, 0); err == nil {
		t.Fatal("selection on empty pool accepted")
	}
	pool.Extend(50)
	if _, err := pool.EstimateSpread([]int32{9}); err == nil {
		t.Fatal("bad boost node accepted")
	}
	if _, _, err := pool.GreedyBoost(0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// TestPoolExtendTinyIncrement pins the idle-shard merge: growing a pool
// by fewer profiles than there are workers leaves trailing workers with
// no chunk (their shards stay zero-valued), which must be skipped by
// the merge — and the resulting pool must be bit-identical to a
// single-worker build, since profile seeds are drawn serially.
func TestPoolExtendTinyIncrement(t *testing.T) {
	r := rng.New(71)
	g := testutil.RandomGraph(r, 25, 90, 0.5)
	many, err := NewPool(g, []int32{0, 1}, 9, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny first build, then warm in-place growth smaller than the
	// worker count — the engine's Sims-extension pattern.
	many.Extend(3)
	many.Extend(5)
	many.Extend(6)
	one, err := NewPool(g, []int32{0, 1}, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	one.Extend(6)
	if many.NumProfiles() != 6 || one.NumProfiles() != 6 {
		t.Fatalf("profiles %d/%d, want 6", many.NumProfiles(), one.NumProfiles())
	}
	if many.BaseSpread() != one.BaseSpread() {
		t.Fatalf("BaseSpread %v != single-worker %v", many.BaseSpread(), one.BaseSpread())
	}
	wantEst, err := one.EstimateSpread([]int32{2})
	if err != nil {
		t.Fatal(err)
	}
	gotEst, err := many.EstimateSpread([]int32{2})
	if err != nil {
		t.Fatal(err)
	}
	if gotEst != wantEst {
		t.Fatalf("EstimateSpread %v != single-worker %v", gotEst, wantEst)
	}
}

// TestDeltaGainsContract holds Delta's greedy half to the shared
// contract oracle (profiletest.CheckGains) on tiny random graphs, with
// and without impossible, certain and boost-only edges, and random
// boost sets.
func TestDeltaGainsContract(t *testing.T) {
	r := rng.New(61)
	for trial := 0; trial < 40; trial++ {
		n := 6 + r.Intn(7)
		graphOf := testutil.RandomGraph
		if trial%2 == 1 {
			graphOf = testutil.EdgeCaseGraph
		}
		g := graphOf(r, n, 3*n+r.Intn(2*n), 0.8)
		seeds := testutil.RandomSeedSet(r, n, 1+r.Intn(3))
		pool, err := NewPool(g, seeds, uint64(trial)+9, 1+trial%3)
		if err != nil {
			t.Fatal(err)
		}
		pool.Extend(60)
		nonSeeds := testutil.NonSeeds(n, seeds)
		var bset []int32
		for _, i := range r.Sample(len(nonSeeds), r.Intn(4)) {
			bset = append(bset, nonSeeds[i])
		}
		if err := profiletest.CheckGains(pool.kernel, bset); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
