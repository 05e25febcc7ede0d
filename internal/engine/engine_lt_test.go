package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func testLTRequest() BoostRequest {
	return BoostRequest{
		GraphID: "g",
		Seeds:   []int32{0, 20, 40},
		K:       3,
		Mode:    "lt",
		Seed:    11,
		Workers: 2,
		Sims:    2000,
	}
}

func TestLTWarmQuerySkipsResampling(t *testing.T) {
	e := newTestEngine(t, Options{})
	req := testLTRequest()

	cold, err := e.Boost(req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit || cold.ResultCached {
		t.Error("first LT query reported a cache hit")
	}
	if cold.NewSamples != req.Sims || cold.Samples != req.Sims {
		t.Errorf("cold LT query: NewSamples=%d Samples=%d, want %d profiles", cold.NewSamples, cold.Samples, req.Sims)
	}
	if len(cold.BoostSet) != req.K {
		t.Errorf("boost set has %d nodes, want %d", len(cold.BoostSet), req.K)
	}

	warm, err := e.Boost(req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit || !warm.ResultCached {
		t.Errorf("warm identical LT query: CacheHit=%v ResultCached=%v, want both", warm.CacheHit, warm.ResultCached)
	}
	if warm.NewSamples != 0 {
		t.Errorf("warm LT query generated %d profiles, want 0", warm.NewSamples)
	}
	if fmt.Sprint(warm.BoostSet) != fmt.Sprint(cold.BoostSet) || warm.EstBoost != cold.EstBoost {
		t.Errorf("warm result differs: %v/%v vs %v/%v", warm.BoostSet, warm.EstBoost, cold.BoostSet, cold.EstBoost)
	}

	st := e.Stats()
	if st.SimModes["lt"].BoostQueries != 2 || st.SimModes["lt"].PoolMisses != 1 || st.SimModes["lt"].PoolHits != 1 || st.SimModes["lt"].ResultHits != 1 {
		t.Errorf("lt stats = %+v, want 2 queries / 1 miss / 1 hit / 1 result hit", st)
	}
	if st.SimModes["lt"].Profiles != int64(req.Sims) {
		t.Errorf("lt profiles=%d, want %d", st.SimModes["lt"].Profiles, req.Sims)
	}
	if st.BoostQueries != 2 || st.PoolMisses != 1 || st.PoolHits != 1 {
		t.Errorf("shared counters not bumped by LT traffic: %+v", st)
	}
	if st.PRRGenerated != 0 {
		t.Errorf("LT queries generated %d PRR-graphs", st.PRRGenerated)
	}
	if st.PoolBytes <= 0 {
		t.Errorf("PoolBytes=%d, want positive LT pool estimate", st.PoolBytes)
	}
}

func TestLTMoreSimsExtendsInPlace(t *testing.T) {
	e := newTestEngine(t, Options{})
	req := testLTRequest()
	req.Sims = 800
	if _, err := e.Boost(req); err != nil {
		t.Fatal(err)
	}
	req.Sims = 2000
	grown, err := e.Boost(req)
	if err != nil {
		t.Fatal(err)
	}
	if !grown.CacheHit {
		t.Error("raised sim budget should still hit the cached pool")
	}
	if grown.NewSamples != 1200 {
		t.Errorf("NewSamples=%d, want the 1200 shortfall", grown.NewSamples)
	}
	if grown.ResultCached {
		t.Error("query that grew the pool reported a cached result")
	}
	if grown.Samples != 2000 {
		t.Errorf("Samples=%d, want 2000", grown.Samples)
	}
	st := e.Stats()
	if st.SimModes["lt"].PoolExtensions != 1 || st.PoolExtensions != 1 {
		t.Errorf("extensions=%d/%d, want 1/1", st.SimModes["lt"].PoolExtensions, st.PoolExtensions)
	}
	if st.SimModes["lt"].Profiles != 2000 {
		t.Errorf("lt profiles=%d, want 2000 cumulative", st.SimModes["lt"].Profiles)
	}
	// A smaller budget after growth is fully warm.
	req.Sims = 500
	small, err := e.Boost(req)
	if err != nil {
		t.Fatal(err)
	}
	if !small.CacheHit || small.NewSamples != 0 {
		t.Errorf("smaller sims: CacheHit=%v NewSamples=%d, want warm hit", small.CacheHit, small.NewSamples)
	}
}

// TestLTDifferentKSharesPool pins the big structural difference from
// the PRR path: LT profiles are k-independent, so a larger k never
// rebuilds the pool.
func TestLTDifferentKSharesPool(t *testing.T) {
	e := newTestEngine(t, Options{})
	req := testLTRequest()
	req.K = 1
	if _, err := e.Boost(req); err != nil {
		t.Fatal(err)
	}
	req.K = 5
	res, err := e.Boost(req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit || res.Rebuilt || res.NewSamples != 0 {
		t.Errorf("k=5 after k=1: CacheHit=%v Rebuilt=%v NewSamples=%d, want pure hit", res.CacheHit, res.Rebuilt, res.NewSamples)
	}
	if res.ResultCached {
		t.Error("different k hit the result cache")
	}
	if st := e.Stats(); st.PoolRebuilds != 0 || st.Pools != 1 {
		t.Errorf("rebuilds=%d pools=%d, want 0/1", st.PoolRebuilds, st.Pools)
	}
}

// TestLTSeparateFromPRRPools: the same (graph, seeds) under mode "lt"
// and mode "full" must live in distinct cache entries.
func TestLTSeparateFromPRRPools(t *testing.T) {
	e := newTestEngine(t, Options{})
	if _, err := e.Boost(testRequest()); err != nil {
		t.Fatal(err)
	}
	res, err := e.Boost(testLTRequest())
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("lt query hit the PRR pool")
	}
	if st := e.Stats(); st.Pools != 2 {
		t.Errorf("pools=%d, want separate PRR and LT pools", st.Pools)
	}
}

func TestLTEstimateSharesBoostPool(t *testing.T) {
	e := newTestEngine(t, Options{})
	boostRes, err := e.Boost(testLTRequest())
	if err != nil {
		t.Fatal(err)
	}
	est, err := e.Estimate(EstimateRequest{
		GraphID: "g", Seeds: []int32{0, 20, 40}, Boost: boostRes.BoostSet,
		Mode: "lt", Sims: 2000, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !est.CacheHit {
		t.Error("lt estimate after lt boost missed the shared pool")
	}
	if est.Spread < 3 {
		t.Errorf("spread %.2f below seed count", est.Spread)
	}
	if est.Boost < 0 {
		t.Errorf("boost %.4f negative (coupled profiles cannot go negative)", est.Boost)
	}
	// The pooled greedy's own estimate and the estimate endpoint
	// evaluate the same profiles: they must agree exactly.
	if est.Boost != boostRes.EstBoost {
		t.Errorf("estimate Δ̂=%v != selection Δ̂=%v on the same pool", est.Boost, boostRes.EstBoost)
	}
	st := e.Stats()
	if st.SimModes["lt"].EstimateQueries != 1 || st.EstimateQueries != 1 {
		t.Errorf("estimate counters = %d/%d, want 1/1", st.SimModes["lt"].EstimateQueries, st.EstimateQueries)
	}
	if st.SimModes["lt"].PoolMisses != 1 {
		t.Errorf("lt pool misses=%d, want the single boost-side build", st.SimModes["lt"].PoolMisses)
	}

	// An estimate that omits sims reuses the cached pool at its current
	// size — a read must not silently extend the pool to the default
	// budget.
	profiles := e.Stats().SimModes["lt"].Profiles
	lazy, err := e.Estimate(EstimateRequest{
		GraphID: "g", Seeds: []int32{0, 20, 40}, Boost: []int32{7}, Mode: "lt",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !lazy.CacheHit {
		t.Error("sims-less estimate missed the warm pool")
	}
	if got := e.Stats().SimModes["lt"].Profiles; got != profiles {
		t.Errorf("sims-less estimate grew the pool: %d -> %d profiles", profiles, got)
	}

	// Cold LT estimate on different seeds builds (and caches) a pool.
	cold, err := e.Estimate(EstimateRequest{
		GraphID: "g", Seeds: []int32{5, 25}, Boost: []int32{7}, Mode: "lt", Sims: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Error("cold lt estimate reported a cache hit")
	}
	if st := e.Stats(); st.Pools != 2 {
		t.Errorf("pools=%d, want the estimate-built pool cached", st.Pools)
	}
}

func TestLTValidation(t *testing.T) {
	e := newTestEngine(t, Options{})
	req := testLTRequest()
	req.K = 0
	if _, err := e.Boost(req); err == nil {
		t.Error("k=0 accepted")
	}
	req = testLTRequest()
	req.Seeds = nil
	if _, err := e.Boost(req); err == nil {
		t.Error("empty seed set accepted")
	}
	req = testLTRequest()
	req.Seeds = []int32{999}
	if _, err := e.Boost(req); err == nil {
		t.Error("out-of-range seed accepted")
	}
	// Duplicate seeds are rejected like the PRR path rejects them, so
	// [0,0,20] cannot cache a second pool next to [0,20].
	req = testLTRequest()
	req.Seeds = []int32{0, 0, 20}
	if _, err := e.Boost(req); err == nil {
		t.Error("duplicate seeds accepted")
	}
	if _, err := e.Estimate(EstimateRequest{GraphID: "g", Seeds: []int32{0, 0, 20}, Mode: "lt"}); err == nil {
		t.Error("duplicate seeds accepted by estimate")
	}
	if st := e.Stats(); st.Pools != 0 {
		t.Errorf("invalid LT queries created %d pools", st.Pools)
	}
	if _, err := e.Estimate(EstimateRequest{GraphID: "g", Seeds: []int32{0}, Boost: []int32{999}, Mode: "lt"}); err == nil {
		t.Error("out-of-range boost node accepted")
	}
	if _, err := e.Estimate(EstimateRequest{GraphID: "g", Seeds: []int32{0}, Mode: "turbo"}); err == nil {
		t.Error("unknown estimate mode accepted")
	} else if msg := fmt.Sprint(err); !strings.Contains(msg, "turbo") {
		t.Errorf("estimate mode error %q does not name the mode", msg)
	}
}

// TestLTConcurrentQueries exercises the LT warm path under -race:
// identical queries dedupe to one build, and mixed warm queries
// (alternating k, plus estimates) run concurrently under the entry's
// read lock.
func TestLTConcurrentQueries(t *testing.T) {
	e := newTestEngine(t, Options{})
	req := testLTRequest()
	cold, err := e.Boost(req)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	results := make([]*BoostResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := req
			switch i % 3 {
			case 1:
				r.K = 2
			case 2:
				_, errs[i] = e.Estimate(EstimateRequest{
					GraphID: "g", Seeds: req.Seeds, Boost: []int32{7},
					Mode: "lt", Sims: req.Sims,
				})
				return
			}
			results[i], errs[i] = e.Boost(r)
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if results[i] == nil {
			continue
		}
		if !results[i].CacheHit || results[i].NewSamples != 0 {
			t.Errorf("query %d was not fully warm: hit=%v new=%d", i, results[i].CacheHit, results[i].NewSamples)
		}
	}
	for i := 0; i < workers; i += 3 {
		if fmt.Sprint(results[i].BoostSet) != fmt.Sprint(cold.BoostSet) {
			t.Errorf("warm query %d returned %v, cold returned %v", i, results[i].BoostSet, cold.BoostSet)
		}
	}
}

// TestLTConcurrentColdQueriesShareOneBuild: the per-entry mutex must
// singleflight concurrent identical cold LT queries.
func TestLTConcurrentColdQueriesShareOneBuild(t *testing.T) {
	e := newTestEngine(t, Options{})
	req := testLTRequest()
	const workers = 6
	results := make([]*BoostResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Boost(req)
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if fmt.Sprint(results[i].BoostSet) != fmt.Sprint(results[0].BoostSet) {
			t.Errorf("query %d returned %v, query 0 returned %v", i, results[i].BoostSet, results[0].BoostSet)
		}
	}
	st := e.Stats()
	if st.SimModes["lt"].PoolMisses != 1 {
		t.Errorf("lt pool misses=%d, want 1 (singleflight should dedupe the build)", st.SimModes["lt"].PoolMisses)
	}
	if st.SimModes["lt"].Profiles != int64(req.Sims) {
		t.Errorf("lt profiles=%d, want one pool's worth (%d)", st.SimModes["lt"].Profiles, req.Sims)
	}
}

// TestLTEvictionByBytes: LT pools are byte-accounted like PRR pools and
// evict under the same budget.
func TestLTEvictionByBytes(t *testing.T) {
	e := newTestEngine(t, Options{MaxPools: 100, MaxPoolBytes: 1})
	a := testLTRequest()
	b := testLTRequest()
	b.Seeds = []int32{5, 25}
	if _, err := e.Boost(a); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Boost(b); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Pools != 1 || st.Evictions != 1 {
		t.Errorf("pools=%d evictions=%d, want 1/1", st.Pools, st.Evictions)
	}
	res, err := e.Boost(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("query against a byte-evicted LT pool reported a cache hit")
	}
}
