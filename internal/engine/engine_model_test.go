package engine

// Tests for the pluggable-model serving path (modes "sir" and
// "kthresh" behind the same pool/result-cache plumbing as "lt"), the
// content-properties modifier's cache keying, the prefilter
// correctness fixes, the ErrorTargetMet conflict reporting, and the
// uniform unknown-mode dispatch across every endpoint.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/model"
)

// simModes are the pooled simulation modes; every generic-path test
// loops over all of them so a regression in one model's adapter cannot
// hide behind the others.
var simModes = []string{"lt", "sir", "kthresh"}

// TestSimBoostRoundTripAllModes: every simulation mode serves a boost
// query end to end — cold build, warm result-cache hit, per-mode
// counters — through the one generic path.
func TestSimBoostRoundTripAllModes(t *testing.T) {
	for _, mode := range simModes {
		e := newTestEngine(t, Options{})
		req := testRequest()
		req.Mode = mode
		req.Sims = 800

		cold, err := e.Boost(req)
		if err != nil {
			t.Fatalf("mode %s cold: %v", mode, err)
		}
		if cold.CacheHit || cold.NewSamples != 800 {
			t.Errorf("mode %s cold: CacheHit=%v NewSamples=%d, want false/800", mode, cold.CacheHit, cold.NewSamples)
		}
		if len(cold.BoostSet) == 0 || len(cold.BoostSet) > req.K {
			t.Errorf("mode %s: boost set %v, want 1..%d nodes", mode, cold.BoostSet, req.K)
		}

		warm, err := e.Boost(req)
		if err != nil {
			t.Fatalf("mode %s warm: %v", mode, err)
		}
		if !warm.CacheHit || !warm.ResultCached || warm.NewSamples != 0 {
			t.Errorf("mode %s warm: CacheHit=%v ResultCached=%v NewSamples=%d, want true/true/0",
				mode, warm.CacheHit, warm.ResultCached, warm.NewSamples)
		}
		if fmt.Sprint(warm.BoostSet) != fmt.Sprint(cold.BoostSet) || warm.EstBoost != cold.EstBoost {
			t.Errorf("mode %s: warm result diverges from cold", mode)
		}

		sm, ok := e.Stats().SimModes[mode]
		if !ok {
			t.Fatalf("mode %s: no SimModes entry after two queries", mode)
		}
		if sm.BoostQueries != 2 || sm.PoolMisses != 1 || sm.PoolHits != 1 ||
			sm.ResultHits != 1 || sm.Profiles != 800 {
			t.Errorf("mode %s counters: %+v, want 2 queries / 1 miss / 1 hit / 1 result hit / 800 profiles", mode, sm)
		}
	}
}

// TestSimBoostWorkerInvariance: the served boost set and Δ̂ must be
// bit-identical for every worker count, for each pooled model.
func TestSimBoostWorkerInvariance(t *testing.T) {
	for _, mode := range simModes {
		var want *BoostResult
		for i, workers := range []int{1, 2, 7} {
			e := newTestEngine(t, Options{})
			req := testRequest()
			req.Mode = mode
			req.Sims = 500
			req.Workers = workers
			got, err := e.Boost(req)
			if err != nil {
				t.Fatalf("mode %s workers=%d: %v", mode, workers, err)
			}
			if i == 0 {
				want = got
				continue
			}
			if fmt.Sprint(got.BoostSet) != fmt.Sprint(want.BoostSet) || got.EstBoost != want.EstBoost {
				t.Errorf("mode %s workers=%d: (%v, %g) diverges from workers=1 (%v, %g)",
					mode, workers, got.BoostSet, got.EstBoost, want.BoostSet, want.EstBoost)
			}
		}
	}
}

// TestSimEstimateSharesBoostPool: an estimate in a simulation mode must
// reuse the pool its boost queries built (and vice versa) — one pool
// per (graph, mode, seeds), not one per endpoint.
func TestSimEstimateSharesBoostPool(t *testing.T) {
	for _, mode := range []string{"sir", "kthresh"} {
		e := newTestEngine(t, Options{})
		req := testRequest()
		req.Mode = mode
		req.Sims = 600
		res, err := e.Boost(req)
		if err != nil {
			t.Fatalf("mode %s boost: %v", mode, err)
		}
		est, err := e.Estimate(EstimateRequest{
			GraphID: "g", Seeds: req.Seeds, Boost: res.BoostSet, Mode: mode,
		})
		if err != nil {
			t.Fatalf("mode %s estimate: %v", mode, err)
		}
		if !est.CacheHit {
			t.Errorf("mode %s: estimate missed the pool its boost query built", mode)
		}
		// Same worlds, integer-differenced: the estimate's Δ̂ for the
		// chosen set must agree exactly with what selection reported.
		if est.Boost != res.EstBoost {
			t.Errorf("mode %s: estimate Δ̂=%g, boost query reported %g", mode, est.Boost, res.EstBoost)
		}
		if st := e.Stats(); st.Pools != 1 {
			t.Errorf("mode %s: %d pools cached, want 1 shared", mode, st.Pools)
		}
	}
}

// TestSimModeParamsKeyPools: distinct model parameters must never
// share sampled worlds — "sir" at two recovery rates builds two pools.
func TestSimModeParamsKeyPools(t *testing.T) {
	e := newTestEngine(t, Options{})
	req := testRequest()
	req.Mode = "sir"
	req.Sims = 300
	req.Recovery = 0.25
	if _, err := e.Boost(req); err != nil {
		t.Fatal(err)
	}
	req.Recovery = 0.75
	if _, err := e.Boost(req); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Pools != 2 || st.PoolMisses != 2 {
		t.Errorf("pools=%d misses=%d after two recovery rates, want 2/2", st.Pools, st.PoolMisses)
	}
}

// TestSimModeKnobMisuse: setting a model knob for a mode it does not
// apply to is rejected before any pool or counter is touched.
func TestSimModeKnobMisuse(t *testing.T) {
	e := newTestEngine(t, Options{})
	cases := []BoostRequest{
		{GraphID: "g", Seeds: []int32{0}, K: 1, Mode: "lt", Recovery: 0.5},
		{GraphID: "g", Seeds: []int32{0}, K: 1, Mode: "sir", Threshold: 2},
		{GraphID: "g", Seeds: []int32{0}, K: 1, Mode: "ic", Recovery: 0.5},
		{GraphID: "g", Seeds: []int32{0}, K: 1, Mode: "sir", Recovery: 1.5},
		{GraphID: "g", Seeds: []int32{0}, K: 1, Mode: "kthresh", Threshold: -1},
	}
	for _, req := range cases {
		if _, err := e.Boost(req); err == nil {
			t.Errorf("mode %s (recovery=%g threshold=%d): knob misuse accepted", req.Mode, req.Recovery, req.Threshold)
		}
	}
	if st := e.Stats(); st.BoostQueries != 0 || st.Pools != 0 {
		t.Errorf("rejected requests touched state: queries=%d pools=%d", st.BoostQueries, st.Pools)
	}
}

// TestContentKeysPools: distinct content modifiers must never share
// sampled worlds, while the identity modifier (explicit or omitted)
// shares the content-free pool.
func TestContentKeysPools(t *testing.T) {
	e := newTestEngine(t, Options{})
	req := testRequest()
	req.Mode = "lt"
	req.Sims = 400

	if _, err := e.Boost(req); err != nil { // content-free
		t.Fatal(err)
	}
	req.Content = &model.Content{Virality: 1, Credibility: 1} // explicit identity
	warm, err := e.Boost(req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Error("explicit identity content missed the content-free pool")
	}

	req.Content = &model.Content{Virality: 1.5}
	hot, err := e.Boost(req)
	if err != nil {
		t.Fatal(err)
	}
	if hot.CacheHit {
		t.Error("non-identity content hit the content-free pool")
	}
	req.Content = &model.Content{Virality: 1.5, Credibility: 0.5}
	if _, err := e.Boost(req); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Pools != 3 {
		t.Errorf("%d pools after identity + two content variants, want 3", st.Pools)
	}

	// Out-of-range scalars are rejected up front.
	for _, bad := range []*model.Content{{Virality: -1}, {Credibility: 2}, {Credibility: -0.1}} {
		req.Content = bad
		if _, err := e.Boost(req); err == nil {
			t.Errorf("content %+v accepted", *bad)
		}
	}
}

// TestContentAffectsSpread: a higher-virality content must not estimate
// a lower spread than the same query on stale content — the modifier
// has to actually reach the sampled worlds, not just the cache key.
func TestContentAffectsSpread(t *testing.T) {
	e := newTestEngine(t, Options{})
	base := EstimateRequest{GraphID: "g", Seeds: []int32{0, 20, 40}, Mode: "lt", Sims: 1500, Seed: 9}

	viral := base
	viral.Content = &model.Content{Virality: 2}
	stale := base
	stale.Content = &model.Content{Virality: 0.25}

	hi, err := e.Estimate(viral)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := e.Estimate(stale)
	if err != nil {
		t.Fatal(err)
	}
	if hi.Spread <= lo.Spread {
		t.Errorf("virality 2 spread %g <= virality 0.25 spread %g", hi.Spread, lo.Spread)
	}
}

// TestSimPoolDroppedOnPatch: pools of models without in-place repair
// ("sir", "kthresh") are dropped on a graph patch — counted as repair
// fallbacks — and the next query rebuilds cold on the patched graph.
func TestSimPoolDroppedOnPatch(t *testing.T) {
	for _, mode := range []string{"sir", "kthresh"} {
		e := newTestEngine(t, Options{})
		req := testRequest()
		req.Mode = mode
		req.Sims = 300
		if _, err := e.Boost(req); err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		d := testDelta(t, testGraph(t))
		res, err := e.RepairGraph("g", d)
		if err != nil {
			t.Fatalf("mode %s patch: %v", mode, err)
		}
		if res.PoolsRepaired != 0 || res.PoolsDropped != 1 {
			t.Errorf("mode %s: repaired=%d dropped=%d, want 0/1 (no Repairer)", mode, res.PoolsRepaired, res.PoolsDropped)
		}
		after, err := e.Boost(req)
		if err != nil {
			t.Fatalf("mode %s post-patch: %v", mode, err)
		}
		if after.CacheHit {
			t.Errorf("mode %s: post-patch query hit a pool that should have been dropped", mode)
		}
	}
}

// TestContentPoolDroppedOnPatch: even an LT pool (which can repair in
// place) is dropped when it was sampled from a content-derived graph —
// the base-graph delta does not describe its probabilities.
func TestContentPoolDroppedOnPatch(t *testing.T) {
	e := newTestEngine(t, Options{})
	req := testRequest()
	req.Mode = "lt"
	req.Sims = 300
	req.Content = &model.Content{Virality: 1.5}
	if _, err := e.Boost(req); err != nil {
		t.Fatal(err)
	}
	d := testDelta(t, testGraph(t))
	res, err := e.RepairGraph("g", d)
	if err != nil {
		t.Fatal(err)
	}
	if res.PoolsRepaired != 0 || res.PoolsDropped != 1 {
		t.Errorf("content pool: repaired=%d dropped=%d, want 0/1", res.PoolsRepaired, res.PoolsDropped)
	}
}

// --- satellite 1: prefilter correctness ---

// TestPrefilterSmallerThanKRejected: prefilter < k can never fill the
// boost set, so the request is rejected before any cache or counter is
// touched — on the PRR path and every simulation mode alike.
func TestPrefilterSmallerThanKRejected(t *testing.T) {
	for _, mode := range []string{"", "lt", "sir", "kthresh"} {
		e := newTestEngine(t, Options{})
		req := testRequest()
		req.Mode = mode
		req.K = 3
		req.Prefilter = 2
		_, err := e.Boost(req)
		if err == nil {
			t.Fatalf("mode %q: prefilter 2 < k=3 accepted", mode)
		}
		if msg := fmt.Sprint(err); !strings.Contains(msg, "prefilter") {
			t.Errorf("mode %q: error %q does not name the prefilter", mode, msg)
		}
		if st := e.Stats(); st.BoostQueries != 0 || st.Pools != 0 || st.PoolMisses != 0 {
			t.Errorf("mode %q: rejected request touched state: queries=%d pools=%d misses=%d",
				mode, st.BoostQueries, st.Pools, st.PoolMisses)
		}
	}
}

// sparseGraph is a graph where almost no node has a boostable path from
// the seed: a short directed chain inside a sea of isolated nodes, so
// the two-hop prefilter ranking runs out of nonzero-score candidates
// long before a generous cap.
func sparseGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(40)
	for i := int32(0); i < 4; i++ {
		b.MustAddEdge(i, i+1, 0.3, 0.6)
	}
	return b.MustBuild()
}

// TestPrefilterShortShortlistFallsBack: when the two-hop shortlist
// comes back shorter than the requested cap, the query must fall back
// to unrestricted selection — identical result, shared result-cache
// slot (pre normalized to 0) — instead of silently serving and caching
// a degraded shortlist.
func TestPrefilterShortShortlistFallsBack(t *testing.T) {
	for _, mode := range []string{"", "lt", "sir", "kthresh"} {
		e := New(Options{})
		if err := e.RegisterGraph("s", sparseGraph(t)); err != nil {
			t.Fatal(err)
		}
		req := BoostRequest{
			GraphID: "s", Seeds: []int32{0}, K: 2, Mode: mode,
			Seed: 11, Workers: 2, MaxSamples: 2000, Sims: 500,
		}
		exact, err := e.Boost(req)
		if err != nil {
			t.Fatalf("mode %q exact: %v", mode, err)
		}

		pre := req
		pre.Prefilter = 25 // far more than the graph's boostable nodes
		got, err := e.Boost(pre)
		if err != nil {
			t.Fatalf("mode %q prefilter: %v", mode, err)
		}
		if fmt.Sprint(got.BoostSet) != fmt.Sprint(exact.BoostSet) || got.EstBoost != exact.EstBoost {
			t.Errorf("mode %q: fallback result (%v, %g) diverges from exact (%v, %g)",
				mode, got.BoostSet, got.EstBoost, exact.BoostSet, exact.EstBoost)
		}
		if !got.ResultCached {
			t.Errorf("mode %q: fallback did not share the exact query's result-cache slot", mode)
		}
	}
}

// --- satellite 2: ErrorTargetMet ---

// TestEstimateErrorTargetMet pins the conflict semantics: the latency
// cap is hard and wins, and the response must say when that sacrificed
// the error target — and only then.
func TestEstimateErrorTargetMet(t *testing.T) {
	e := newTestEngine(t, Options{})
	base := tierRequest("ic")

	// Knobless exact requests trivially meet their (absent) target.
	plain, err := e.Estimate(base)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.ErrorTargetMet {
		t.Error("knobless request reported ErrorTargetMet=false")
	}

	// Latency-only: no target to miss.
	latOnly := base
	latOnly.MaxLatencyMS = 50
	res, err := e.Estimate(latOnly)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ErrorTargetMet {
		t.Error("latency-only request reported ErrorTargetMet=false")
	}

	// Calibrate, then an achievable error target: met.
	calReq := base
	calReq.MaxError = 0.5
	if _, err := e.Estimate(calReq); err != nil {
		t.Fatal(err)
	}
	loose, err := e.Estimate(calReq)
	if err != nil {
		t.Fatal(err)
	}
	if !loose.ErrorTargetMet {
		t.Errorf("achievable target served tier %d with ErrorTargetMet=false", loose.Tier)
	}

	// Both knobs in conflict: an unattainably tight error target needs
	// tier 2, an unattainably tight latency cap forces tier 0 — latency
	// wins, and the response must disclose the sacrifice.
	conflict := base
	conflict.MaxError = 1e-12
	conflict.MaxLatencyMS = 1e-9
	res, err = e.Estimate(conflict)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != 0 {
		t.Fatalf("conflicting knobs served tier %d, want 0 (latency cap is hard)", res.Tier)
	}
	if res.ErrorTargetMet {
		t.Error("latency cap sacrificed the error target but ErrorTargetMet=true")
	}
}

// TestEstimateTierFloorForNoTier0Modes: modes whose semantics the
// closed-form estimator cannot express ("sir"; "kthresh" at τ >= 2)
// decline tier 0, so even a pure latency cap serves tier 1.
func TestEstimateTierFloorForNoTier0Modes(t *testing.T) {
	for _, mode := range []string{"sir", "kthresh"} {
		e := newTestEngine(t, Options{})
		req := tierRequest(mode)
		req.MaxLatencyMS = 1e-9 // would force tier 0 if admissible
		res, err := e.Estimate(req)
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		if res.Tier != 1 {
			t.Errorf("mode %s: latency-capped estimate served tier %d, want floor 1", mode, res.Tier)
		}
		if !res.ErrorTargetMet {
			t.Errorf("mode %s: no error target set but ErrorTargetMet=false", mode)
		}

		// With a calibration on file the floor still holds, and a tight
		// error target under a hard latency cap reports the sacrifice.
		cal := tierRequest(mode)
		cal.MaxError = 0.5
		if _, err := e.Estimate(cal); err != nil {
			t.Fatalf("mode %s calibrate: %v", mode, err)
		}
		cal.MaxError = 1e-12
		cal.MaxLatencyMS = 1e-9
		res, err = e.Estimate(cal)
		if err != nil {
			t.Fatalf("mode %s conflict: %v", mode, err)
		}
		if res.Tier != 1 {
			t.Errorf("mode %s: conflicting knobs served tier %d, want floor 1", mode, res.Tier)
		}
		if res.ErrorTargetMet {
			t.Errorf("mode %s: sacrificed error target reported as met", mode)
		}
	}
}

// --- satellite 3: uniform mode dispatch ---

// TestModeDispatchUniform: every query endpoint rejects an unknown mode
// with the same 400 body, so clients see one mode catalog no matter
// where they typo.
func TestModeDispatchUniform(t *testing.T) {
	srv := newTestServer(t)
	endpoints := []struct {
		path string
		body string
	}{
		{"/v1/boost", `{"graph":"g","seeds":[0],"k":1,"mode":"turbo"}`},
		{"/v1/estimate", `{"graph":"g","seeds":[0],"mode":"turbo"}`},
		{"/v1/seeds", `{"graph":"g","k":1,"mode":"turbo"}`},
	}
	var msgs []string
	for _, ep := range endpoints {
		resp, decoded := postJSON(t, srv.URL+ep.path, ep.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: unknown mode status %d, want 400", ep.path, resp.StatusCode)
		}
		msg, _ := decoded["error"].(string)
		if !strings.Contains(msg, "turbo") {
			t.Errorf("%s: error %q does not name the offending mode", ep.path, msg)
		}
		for _, known := range []string{"ic", "lb", "lt", "sir", "kthresh"} {
			if !strings.Contains(msg, known) {
				t.Errorf("%s: error %q does not list known mode %q", ep.path, msg, known)
			}
		}
		msgs = append(msgs, msg)
	}
	if msgs[0] != msgs[1] || msgs[1] != msgs[2] {
		t.Errorf("unknown-mode bodies differ across endpoints: %q", msgs)
	}

	// Known-but-unservable modes are rejected with a specific error, not
	// the unknown-mode catalog.
	resp, decoded := postJSON(t, srv.URL+"/v1/estimate", `{"graph":"g","seeds":[0],"mode":"lb"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("estimate mode lb: status %d, want 400", resp.StatusCode)
	}
	if msg, _ := decoded["error"].(string); !strings.Contains(msg, "selection-only") {
		t.Errorf("estimate mode lb: error %q does not explain selection-only", msg)
	}
	resp, decoded = postJSON(t, srv.URL+"/v1/seeds", `{"graph":"g","k":1,"mode":"lt"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("seeds mode lt: status %d, want 400", resp.StatusCode)
	}
	if msg, _ := decoded["error"].(string); !strings.Contains(msg, "ic") {
		t.Errorf("seeds mode lt: error %q does not point at mode ic", msg)
	}
}

// TestDefaultModeIsIC: "" and "full" are aliases for "ic" everywhere —
// same pool, same result-cache slot, same calibration, same counters as
// the explicit spelling.
func TestDefaultModeIsIC(t *testing.T) {
	e := newTestEngine(t, Options{})
	req := testRequest()
	req.Mode = ""
	cold, err := e.Boost(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, alias := range []string{"ic", "full"} {
		req.Mode = alias
		warm, err := e.Boost(req)
		if err != nil {
			t.Fatalf("mode %q: %v", alias, err)
		}
		if !warm.CacheHit || !warm.ResultCached {
			t.Errorf("mode %q: CacheHit=%v ResultCached=%v, want the \"\" pool and result", alias, warm.CacheHit, warm.ResultCached)
		}
		if fmt.Sprint(warm.BoostSet) != fmt.Sprint(cold.BoostSet) {
			t.Errorf("mode %q: boost set diverges from default-mode query", alias)
		}
	}
	if st := e.Stats(); st.Pools != 1 || st.PoolMisses != 1 || st.PoolHits != 2 || st.ResultHits != 2 {
		t.Errorf("alias queries fragmented the cache: %d pools, %d misses, %d hits, %d result hits",
			st.Pools, st.PoolMisses, st.PoolHits, st.ResultHits)
	}

	// Tiered estimates share one calibration across the spellings.
	est := tierRequest("")
	est.MaxError = 0.5
	if _, err := e.Estimate(est); err != nil {
		t.Fatal(err)
	}
	est.Mode = "ic"
	if _, err := e.Estimate(est); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.TierCalibrations != 1 {
		t.Errorf("%d calibrations for \"\" and \"ic\", want 1 shared", st.TierCalibrations)
	}
}

// TestSimModesOverHTTP: the new models (with their knobs and content)
// are served end to end over the JSON API, and /v1/stats reports the
// per-mode breakdown.
func TestSimModesOverHTTP(t *testing.T) {
	srv := newTestServer(t)
	bodies := map[string]string{
		"sir":     `{"graph":"g","seeds":[0,20,40],"k":3,"mode":"sir","recovery":0.3,"seed":7,"sims":400}`,
		"kthresh": `{"graph":"g","seeds":[0,20,40],"k":3,"mode":"kthresh","threshold":2,"seed":7,"sims":400,"content":{"virality":1.2}}`,
	}
	for mode, body := range bodies {
		resp, cold := postJSON(t, srv.URL+"/v1/boost", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mode %s: status %d, body %v", mode, resp.StatusCode, cold)
		}
		if _, ok := cold["boost_set"].([]any); !ok {
			t.Fatalf("mode %s: no boost_set in %v", mode, cold)
		}
		resp, warm := postJSON(t, srv.URL+"/v1/boost", body)
		if resp.StatusCode != http.StatusOK || warm["cache_hit"] != true {
			t.Errorf("mode %s warm: status %d cache_hit=%v", mode, resp.StatusCode, warm["cache_hit"])
		}
	}

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	for mode := range bodies {
		sm, ok := st.SimModes[mode]
		if !ok || sm.BoostQueries != 2 || sm.PoolMisses != 1 {
			t.Errorf("stats sim_modes[%s] = %+v (present=%v), want 2 queries / 1 miss", mode, sm, ok)
		}
	}

	// error_target_met flows through the wire format.
	resp2, est := postJSON(t, srv.URL+"/v1/estimate",
		`{"graph":"g","seeds":[0,20],"mode":"sir","max_latency_ms":50,"seed":3}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("tiered sir estimate: status %d, body %v", resp2.StatusCode, est)
	}
	if est["tier"] != float64(1) || est["error_target_met"] != true {
		t.Errorf("tiered sir estimate: tier=%v error_target_met=%v, want 1/true", est["tier"], est["error_target_met"])
	}
}
