package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"
	"strings"

	"github.com/kboost/kboost/internal/engine"
	"github.com/kboost/kboost/internal/model"
)

// boostResp mirrors the /v1/boost reply.
type boostResp struct {
	BoostSet     []int32 `json:"boost_set"`
	EstBoost     float64 `json:"est_boost"`
	EstMu        float64 `json:"est_mu"`
	EstDelta     float64 `json:"est_delta"`
	Samples      int     `json:"samples"`
	CacheHit     bool    `json:"cache_hit"`
	ResultHit    bool    `json:"result_cached"`
	NewSamples   int     `json:"new_prr_graphs"`
	SelectMS     float64 `json:"selection_ms"`
	GraphVersion uint64  `json:"graph_version"`
}

// seedsResp mirrors the /v1/seeds reply.
type seedsResp struct {
	Seeds   []int32 `json:"seeds"`
	Samples int     `json:"samples"`
}

// checker verifies a timed phase's replies and builds the reference
// work fingerprint: the counters setup left, plus each request's
// expected effect on them.
type checker struct {
	p     *plan
	st    *stack
	bad   []bool // by seq
	notes []string
	// mismatch is set when the engine's counters differ from the reference.
	mismatch bool
	want     map[string]int64

	// Decoded replies by seq, for the replays of a traced run.
	boost  []*boostResp
	est    []*engine.EstimateResult
	seeds  []*seedsResp
	repair []*engine.RepairResult
}

// clientView is what one client has seen: graph versions reported by
// its PATCHes, and in patch_churn how many pools the last PATCH dropped
// and how many boosts have since rebuilt cold.
type clientView struct {
	version map[string]uint64
	dropped int
	cold    int
}

func (v *clientView) current(id string) uint64 {
	if ver := v.version[id]; ver > 0 {
		return ver
	}
	return 1
}

func (ck *checker) fail(r *request, format string, args ...any) {
	ck.bad[r.seq] = true
	if len(ck.notes) < 10 {
		ck.notes = append(ck.notes, fmt.Sprintf("request %d (%s, client %d): %s", r.seq, r.class, r.client, fmt.Sprintf(format, args...)))
	}
}

func (ck *checker) failed() int {
	n := 0
	for _, b := range ck.bad {
		if b {
			n++
		}
	}
	return n
}

func (ck *checker) add(counter string, v int64) { ck.want[counter] += v }

// check verifies every reply of ph against its request class.
func check(p *plan, st *stack, ph *phase) *checker {
	n := len(p.all)
	ck := &checker{p: p, st: st, bad: make([]bool, n), want: fingerprintOf(st.after),
		boost: make([]*boostResp, n), est: make([]*engine.EstimateResult, n),
		seeds: make([]*seedsResp, n), repair: make([]*engine.RepairResult, n)}
	cold := 0
	for _, rs := range p.reqs {
		v := &clientView{version: map[string]uint64{}}
		for _, r := range rs {
			if strings.HasPrefix(r.class, "cold_") {
				cold++
			}
			o := ph.out[r.seq]
			switch {
			case o.err != nil:
				ck.fail(r, "%v", o.err)
			case o.status != http.StatusOK:
				ck.fail(r, "status %d: %.200s", o.status, o.body)
			default:
				ck.one(r, o.body, v)
			}
		}
	}
	// Cold builds never revisit a pool, so each one past the LRU's
	// capacity evicts exactly one entry, whatever the interleaving.
	ck.add("evictions", int64(max(0, st.after.Pools+cold-maxPools)))
	return ck
}

// compareStats checks the engine's final counters against the reference.
func (ck *checker) compareStats(final engine.Stats) {
	got := fingerprintOf(final)
	var diffs []string
	for k, want := range ck.want {
		if got[k] != want {
			diffs = append(diffs, fmt.Sprintf("%s=%d (reference %d)", k, got[k], want))
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		ck.mismatch = true
		ck.notes = append(ck.notes, "work fingerprint differs: "+strings.Join(diffs, ", "))
	}
}

func (ck *checker) one(r *request, body []byte, v *clientView) {
	var err error
	switch {
	case r.boost != nil:
		b := &boostResp{}
		if err = json.Unmarshal(body, b); err == nil {
			ck.boost[r.seq] = b
			ck.checkBoost(r, b, v)
		}
	case r.est != nil:
		e := &engine.EstimateResult{}
		if err = json.Unmarshal(body, e); err == nil {
			ck.est[r.seq] = e
			ck.checkEstimate(r, e)
		}
	case r.seeds != nil:
		s := &seedsResp{}
		if err = json.Unmarshal(body, s); err == nil {
			ck.seeds[r.seq] = s
			if msg := badNodeSet(s.Seeds, r.seeds.K, nil, ck.p.graphs[0].g.N()); msg != "" {
				ck.fail(r, "seeds %v: %s", s.Seeds, msg)
			}
		}
	default:
		rr := &engine.RepairResult{}
		if err = json.Unmarshal(body, rr); err == nil {
			ck.repair[r.seq] = rr
			ck.checkPatch(r, rr, v)
		}
	}
	if err != nil {
		ck.fail(r, "decoding reply: %v", err)
	}
}

func (ck *checker) checkBoost(r *request, b *boostResp, v *clientView) {
	req := r.boost
	k := req.K
	if req.Mode != "ic" && req.Mode != "lb" {
		// The sim-mode greedy stops early when no candidate has a
		// positive gain; the PRR modes pad to k.
		k = min(k, len(b.BoostSet))
	}
	if msg := badNodeSet(b.BoostSet, k, req.Seeds, ck.p.graphs[0].g.N()); msg != "" {
		ck.fail(r, "boost set %v: %s", b.BoostSet, msg)
	}
	if want := v.current(req.GraphID); b.GraphVersion != want {
		ck.fail(r, "graph_version %d, want %d", b.GraphVersion, want)
	}
	switch r.class {
	case clsHit:
		if !b.CacheHit || !b.ResultHit || !sameAnswer(b, ck.st.answers[string(r.body)]) {
			ck.fail(r, "a result-cache hit must repeat the first answer bit for bit")
		}
		ck.add("pool_hits", 1)
		ck.add("result_hits", 1)
	case clsSelIC, clsSelLB:
		if !b.CacheHit || b.ResultHit || b.NewSamples != 0 {
			ck.fail(r, "want selection on a warm pool, got cache_hit=%v result_cached=%v new=%d", b.CacheHit, b.ResultHit, b.NewSamples)
		}
		ck.add("pool_hits", 1)
	case clsICBoost, clsLTBoost:
		// A PATCH empties the result cache: every boost after one selects,
		// on a repaired pool or on one rebuilt because the PATCH dropped it.
		if b.ResultHit {
			ck.fail(r, "result cached right after a patch")
		}
		if b.CacheHit {
			if b.NewSamples != 0 {
				ck.fail(r, "a repaired pool grew by %d samples", b.NewSamples)
			}
			ck.add("pool_hits", 1)
		} else {
			v.cold++
			ck.expectCold(r, b)
		}
		if r.class == clsLTBoost && v.cold != v.dropped {
			ck.fail(r, "%d cold boosts after a patch that dropped %d pools", v.cold, v.dropped)
		}
	default:
		ck.expectCold(r, b)
	}
}

// expectCold checks a build of a fresh pool, which must generate
// exactly the requested size.
func (ck *checker) expectCold(r *request, b *boostResp) {
	size := r.boost.MaxSamples
	if r.boost.Sims > 0 {
		size = r.boost.Sims
	}
	if b.CacheHit || b.NewSamples != size || b.Samples != size {
		ck.fail(r, "want a cold build of exactly %d samples, got cache_hit=%v new=%d samples=%d",
			size, b.CacheHit, b.NewSamples, b.Samples)
	}
	ck.add("pool_misses", 1)
	if r.boost.Sims > 0 {
		ck.add("profiles."+r.boost.Mode, int64(size))
	} else {
		ck.add("prr_generated", int64(size))
	}
}

func (ck *checker) checkEstimate(r *request, e *engine.EstimateResult) {
	tier := 2
	switch r.class {
	case clsT0Lat, clsT0Err:
		tier = 0
	case clsT1Err:
		tier = 1
	}
	if e.Tier != tier || e.Degraded {
		ck.fail(r, "want tier %d, not degraded; got tier %d degraded=%v", tier, e.Tier, e.Degraded)
	}
	if tier == 1 && e.CI == nil {
		ck.fail(r, "tier 1 without a confidence interval")
	}
	if !finite(e.Spread) || !finite(e.Boost) || e.Spread < 0 {
		ck.fail(r, "estimate spread=%v boost=%v", e.Spread, e.Boost)
	}
	if r.est.Mode == "lt" {
		if !e.CacheHit {
			ck.fail(r, "lt estimate missed the warm pool")
		}
		ck.add("pool_hits", 1)
	}
	ck.add(fmt.Sprintf("estimate_tier%d", tier), 1)
}

func (ck *checker) checkPatch(r *request, rr *engine.RepairResult, v *clientView) {
	id := r.patch.graph
	if want := v.current(id) + 1; rr.Version != want {
		ck.fail(r, "patch installed version %d, want %d", rr.Version, want)
	}
	v.version[id] = rr.Version
	if rr.Reweighted != len(r.patch.delta.Reweight) {
		ck.fail(r, "reweighted %d edges, want %d", rr.Reweighted, len(r.patch.delta.Reweight))
	}
	pools := 0
	if r.class == clsPatch {
		pools = 2 // the client's ic and lt pools
		v.dropped, v.cold = rr.PoolsDropped, 0
		ck.add("repaired_sketches", int64(rr.RepairedSketches))
		ck.add("repaired_profiles", int64(rr.RepairedProfiles))
		ck.add("repair_fallback_rebuilds", int64(rr.PoolsDropped))
	}
	if rr.PoolsRepaired+rr.PoolsDropped != pools {
		ck.fail(r, "patch migrated %d pools, want %d", rr.PoolsRepaired+rr.PoolsDropped, pools)
	}
}

// badNodeSet describes what is wrong with a returned node set: its size,
// a node out of range, a duplicate or a seed. "" means nothing.
func badNodeSet(set []int32, k int, seeds []int32, n int) string {
	if len(set) != k {
		return fmt.Sprintf("size %d, want %d", len(set), k)
	}
	seen := map[int32]bool{}
	for _, s := range seeds {
		seen[s] = true
	}
	for _, v := range set {
		if v < 0 || int(v) >= n || seen[v] {
			return fmt.Sprintf("node %d out of range, repeated or a seed", v)
		}
		seen[v] = true
	}
	return ""
}

func sameAnswer(b *boostResp, a *engine.BoostResult) bool {
	return a != nil && slices.Equal(b.BoostSet, a.BoostSet) && sameFloat(b.EstBoost, a.EstBoost) &&
		sameFloat(b.EstMu, a.EstMu) && sameFloat(b.EstDelta, a.EstDelta) && b.Samples == a.Samples &&
		b.SelectMS == float64(a.SelectionTime.Microseconds())/1e3
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// fingerprintOf picks the counters that say what work the engine did.
func fingerprintOf(s engine.Stats) map[string]int64 {
	f := map[string]int64{
		"pool_hits":                s.PoolHits,
		"pool_misses":              s.PoolMisses,
		"pool_extensions":          s.PoolExtensions,
		"result_hits":              s.ResultHits,
		"prr_generated":            s.PRRGenerated,
		"estimate_tier0":           s.EstimateTier0,
		"estimate_tier1":           s.EstimateTier1,
		"estimate_tier2":           s.EstimateTier2,
		"tier_calibrations":        s.TierCalibrations,
		"evictions":                s.Evictions,
		"repaired_sketches":        s.RepairedSketches,
		"repaired_profiles":        s.RepairedProfiles,
		"repair_fallback_rebuilds": s.RepairFallbackRebuilds,
		"requests_shed":            s.RequestsShed,
		"degraded_estimates":       s.DegradedEstimates,
	}
	for _, m := range model.Names() {
		f["profiles."+m] = s.SimModes[m].Profiles
	}
	return f
}
