package engine

// This file is the latency-tiered estimate read path. A request that
// sets MaxLatencyMS or MaxError is served by the cheapest of three
// estimators that satisfies its knobs:
//
//	tier 0 — closed-form one/two-hop approximation (internal/approx),
//	         straight off the CSR. Microseconds, no pool, no sampling,
//	         and no error guarantee of any kind. A model may decline
//	         this tier outright (spec.tier0Norms ok == false) when its
//	         transmission semantics have no per-node-normalizer form;
//	         its tier floor is then tier 1.
//	tier 1 — small fixed-budget Monte-Carlo (tier1Sims worker-invariant
//	         simulations) with a normal-approximation 95% CI.
//	tier 2 — the full evaluation (estimateTier2): fresh 10k-sim Monte-
//	         Carlo for IC, the cached profile pool for the simulation
//	         modes.
//
// Tier choice needs to know how wrong the cheap tiers are *on this
// graph*, which cannot be derived a priori — so the first MaxError
// request against a snapshot runs a calibration pass: all admissible
// tiers once, timed, with the cheap tiers' relative error measured
// against the exact answer (inflated by a safety factor, since one
// operand pair is only a point probe of the error surface). The
// profile is cached per (graph id, mode parameterization, content) and
// keyed to the snapshot version, so uploads and patches invalidate it
// by construction.
//
// Requests that only cap latency never calibrate: with no error target
// there is nothing to trade off, and tier 0 is the one tier whose cost
// is known to be negligible without measuring anything — so they are
// served closed-form immediately, pool-free even on a cold engine
// (tier 1 when the mode declines tier 0).
//
// When both knobs are set they can conflict: the latency cap is hard
// and wins, degrading below the tier the error target fits. The
// response's ErrorTargetMet field reports exactly that sacrifice.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/kboost/kboost/internal/approx"
	"github.com/kboost/kboost/internal/diffusion"
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/stats"
)

// tier1Sims is tier 1's fixed simulation budget: large enough for a
// meaningful CI, ~40x cheaper than the 10k-sim tier-2 default.
const tier1Sims = 256

// calSafety inflates the calibrated tier errors: the calibration pass
// measures one (seeds, boost) operand pair, and other operands on the
// same graph can disagree more.
const calSafety = 2.0

// calibration is one (graph snapshot, mode spec)'s measured tier
// profile.
type calibration struct {
	version uint64
	// relErr[t] is tier t's observed relative error against the tier-2
	// answer, times calSafety. Tier 2 is implicitly 0; a declined tier 0
	// is +Inf (it can never fit an error target).
	relErr [2]float64
	// latMS[t] is tier t's measured serving latency in milliseconds.
	latMS [3]float64
	// norm caches the mode's tier-0 normalizers (nil for raw edge
	// probabilities), so calibrated tier-0 serves skip the O(N+M)
	// recompute.
	norm []float64
	// tier0OK records whether the mode admits the closed-form tier at
	// all; false floors every pick at tier 1.
	tier0OK bool
}

// calKey builds the calibration cache key. Graph ids cannot contain
// NUL (they arrive via URL paths / flag values), so the separator
// cannot collide.
func calKey(id, mode string) string { return id + "\x00" + mode }

// calibrationFor returns the cached calibration for (id, calID) if it
// matches the given snapshot version, else nil.
func (e *Engine) calibrationFor(id, calID string, version uint64) *calibration {
	e.calMu.Lock()
	defer e.calMu.Unlock()
	c := e.cals[calKey(id, calID)]
	if c == nil || c.version != version {
		return nil
	}
	return c
}

// dropCalibrations forgets every mode's calibrations for id — the key
// space is open-ended (parameterized models, content variants), so this
// is a prefix sweep rather than a fixed enumeration. Stale entries are
// never served anyway (version mismatch); this is memory hygiene on
// delete/replace. Safe to call under Engine.mu — calMu is a leaf lock.
func (e *Engine) dropCalibrations(id string) {
	prefix := id + "\x00"
	e.calMu.Lock()
	for k := range e.cals {
		if strings.HasPrefix(k, prefix) {
			delete(e.cals, k)
		}
	}
	e.calMu.Unlock()
}

// validateEstimateNodes range-checks both node lists and rejects an
// empty seed set, mirroring what the tier-2 estimators enforce — the
// closed-form tier indexes masks directly and must never see a bad id.
func validateEstimateNodes(g *graph.Graph, seeds, boost []int32) error {
	if len(seeds) == 0 {
		return fmt.Errorf("engine: empty seed set")
	}
	for _, v := range seeds {
		if v < 0 || int(v) >= g.N() {
			return fmt.Errorf("engine: seed %d out of range [0,%d)", v, g.N())
		}
	}
	for _, v := range boost {
		if v < 0 || int(v) >= g.N() {
			return fmt.Errorf("engine: boost node %d out of range [0,%d)", v, g.N())
		}
	}
	return nil
}

// estimateTiered serves a request with at least one tiering knob set.
func (e *Engine) estimateTiered(ctx context.Context, spec *modeSpec, req EstimateRequest) (EstimateResult, error) {
	g, version, err := e.snapshotFor(req.GraphID)
	if err != nil {
		return EstimateResult{}, err
	}
	if err := validateEstimateNodes(g, req.Seeds, req.Boost); err != nil {
		return EstimateResult{}, err
	}
	rg := &reqGraph{base: g, content: spec.content}

	cal := e.calibrationFor(req.GraphID, spec.calID(), version)
	if cal == nil {
		if req.MaxError <= 0 {
			// Latency cap only: tier 0 is the one tier known-cheap without
			// measurement, so serve it directly — no calibration, no pool.
			// A mode that declines the closed-form tier is floored at tier
			// 1 instead; with no error target set, either serve trivially
			// meets it.
			g2, err := rg.get()
			if err != nil {
				return EstimateResult{}, err
			}
			norm, ok := spec.tier0Norms(g2)
			if !ok {
				out, err := e.estimateTier1(req, g2, spec)
				if err != nil {
					return EstimateResult{}, err
				}
				out.ErrorTargetMet = true
				return out, nil
			}
			out := estimateTier0(g2, req, norm)
			out.ErrorTargetMet = true
			return out, nil
		}
		return e.calibrate(ctx, spec, req, rg, version)
	}

	tier, errMet := pickTier(cal, req)
	switch tier {
	case 0:
		g2, err := rg.get()
		if err != nil {
			return EstimateResult{}, err
		}
		out := estimateTier0(g2, req, cal.norm)
		out.ErrorTargetMet = errMet
		return out, nil
	case 1:
		g2, err := rg.get()
		if err != nil {
			return EstimateResult{}, err
		}
		out, err := e.estimateTier1(req, g2, spec)
		if err != nil {
			return EstimateResult{}, err
		}
		out.ErrorTargetMet = errMet
		return out, nil
	default:
		out, err := e.estimateTier2(ctx, spec, req)
		if err != nil {
			return out, err
		}
		out.Tier = 2
		out.ErrorTargetMet = true
		return out, nil
	}
}

// estimateFloor serves a request at the cheapest tier the mode admits —
// tier 0 when the mode has a closed-form normalizer form, tier 1
// otherwise. It is the degrade-mode workhorse (EstimateDegraded):
// pool-free in both cases, so it stays cheap even on a cold engine
// under load. The caller owns the Degraded and ErrorTargetMet marks
// and the query counters.
func (e *Engine) estimateFloor(ctx context.Context, spec *modeSpec, req EstimateRequest) (EstimateResult, error) {
	g, _, err := e.snapshotFor(req.GraphID)
	if err != nil {
		return EstimateResult{}, err
	}
	if err := validateEstimateNodes(g, req.Seeds, req.Boost); err != nil {
		return EstimateResult{}, err
	}
	if err := ctx.Err(); err != nil {
		return EstimateResult{}, e.noteRequestErr(err)
	}
	rg := &reqGraph{base: g, content: spec.content}
	g2, err := rg.get()
	if err != nil {
		return EstimateResult{}, err
	}
	if norm, ok := spec.tier0Norms(g2); ok {
		return estimateTier0(g2, req, norm), nil
	}
	return e.estimateTier1(req, g2, spec)
}

// pickTier chooses the cheapest tier consistent with the knobs, and
// reports whether that choice still honors the error target. The error
// target picks the cheapest tier whose calibrated relative error fits
// (tier 2 is exact and always fits); tightening MaxError can therefore
// only move the choice to a more expensive tier — the monotonicity the
// property tests pin. The latency cap then degrades the choice
// downward: it is a hard budget, unlike the best-effort error target,
// so a tier that measured over it is never served even when that
// sacrifices the error target — the one case errMet is false. Modes
// that decline tier 0 are floored at tier 1 throughout.
func pickTier(cal *calibration, req EstimateRequest) (tier int, errMet bool) {
	minTier := 0
	if !cal.tier0OK {
		minTier = 1
	}
	tier = minTier
	if req.MaxError > 0 {
		switch {
		case minTier == 0 && cal.relErr[0] <= req.MaxError:
			tier = 0
		case cal.relErr[1] <= req.MaxError:
			tier = 1
		default:
			tier = 2
		}
	}
	errTier := tier
	if req.MaxLatencyMS > 0 {
		for tier > minTier && cal.latMS[tier] > req.MaxLatencyMS {
			tier--
		}
	}
	return tier, tier >= errTier
}

// countEstimate bumps the query counters for one served estimate, in
// the tier that served it. The two public entry points (EstimateContext,
// EstimateDegraded) call it once on success and nothing below them
// counts, so estimate_queries is always the sum of the tier counters
// and a request rejected by validation counts nowhere.
func (e *Engine) countEstimate(tier int, spec *modeSpec) {
	atomic.AddInt64(&e.ctr.EstimateQueries, 1)
	if spec.sim != nil {
		atomic.AddInt64(&e.simCtr(spec.name).EstimateQueries, 1)
	}
	switch tier {
	case 0:
		atomic.AddInt64(&e.ctr.EstimateTier0, 1)
	case 1:
		atomic.AddInt64(&e.ctr.EstimateTier1, 1)
	default:
		atomic.AddInt64(&e.ctr.EstimateTier2, 1)
	}
}

// estimateTier0 answers closed-form: the Chung-Lee style two-hop
// approximation of the boosted spread, and its boosted-minus-base
// difference when the request carries a boost set.
func estimateTier0(g *graph.Graph, req EstimateRequest, norm []float64) EstimateResult {
	out := EstimateResult{Tier: 0}
	if len(req.Boost) > 0 {
		out.Spread, out.Boost = approx.TwoHopBoost(g, req.Seeds, req.Boost, norm)
	} else {
		out.Spread = approx.TwoHopSpread(g, req.Seeds, nil, norm)
	}
	return out
}

// estimateTier1 answers from tier1Sims worker-invariant simulations:
// means for the point estimates, and a CI over the headline quantity.
// The per-simulation samples are index-seeded (rng.ReseedStream), so
// the result is bit-identical for every worker count. g is the
// request's effective (content-applied) graph.
func (e *Engine) estimateTier1(req EstimateRequest, g *graph.Graph, spec *modeSpec) (EstimateResult, error) {
	var spreadS, deltaS []float64
	var err error
	if spec.sim != nil {
		spreadS, deltaS, err = spec.sim.EstimateSamples(g, req.Seeds, req.Boost,
			tier1Sims, req.Seed, e.workersFor(req.Workers))
	} else {
		spreadS, deltaS, err = diffusion.EstimateSamples(g, req.Seeds, req.Boost, diffusion.Options{
			Sims: tier1Sims, Seed: req.Seed, Workers: e.workersFor(req.Workers),
		})
	}
	if err != nil {
		return EstimateResult{}, err
	}
	ss := stats.Summarize(spreadS)
	out := EstimateResult{Tier: 1, Spread: ss.Mean}
	headline, half := spreadS, ss.CI95()
	if len(req.Boost) > 0 {
		ds := stats.Summarize(deltaS)
		out.Boost = ds.Mean
		headline, half = deltaS, ds.CI95()
	}
	// In-place sort + QuantileSorted: the samples are query-local, so
	// the hot path takes the allocation-free median.
	sort.Float64s(headline)
	out.CI = &EstimateCI{Half: half, Median: stats.QuantileSorted(headline, 0.5), Sims: len(headline)}
	return out, nil
}

// calibrate is the first-contact pass for a MaxError request with no
// profile on file: run every admissible tier on this request's
// operands, time them, measure the cheap tiers against the exact
// answer, cache the profile for the snapshot, and serve the tier-2
// result — the only answer that honors an error target before any
// profile exists.
func (e *Engine) calibrate(ctx context.Context, spec *modeSpec, req EstimateRequest, rg *reqGraph, version uint64) (EstimateResult, error) {
	g2, err := rg.get()
	if err != nil {
		return EstimateResult{}, err
	}
	cal := &calibration{version: version}
	norm, tier0OK := spec.tier0Norms(g2)
	cal.tier0OK = tier0OK
	if norm != nil {
		// Copied, not aliased: the calibration outlives the pool state
		// backing the normalizers and is shared across queries.
		cal.norm = append([]float64(nil), norm...)
	}
	boosted := len(req.Boost) > 0

	var r0 EstimateResult
	if tier0OK {
		t := time.Now()
		r0 = estimateTier0(g2, req, cal.norm)
		cal.latMS[0] = msSince(t)
	}

	t := time.Now()
	r1, err := e.estimateTier1(req, g2, spec)
	if err != nil {
		return EstimateResult{}, err
	}
	cal.latMS[1] = msSince(t)

	t = time.Now()
	out, err := e.estimateTier2(ctx, spec, req)
	if err != nil {
		return out, err
	}
	cal.latMS[2] = msSince(t)

	if tier0OK {
		cal.relErr[0] = calSafety * relErrVs(r0, out, boosted)
	} else {
		// A declined closed-form tier can never fit an error target.
		cal.relErr[0] = math.Inf(1)
	}
	// Tier 1's profile also folds in its own CI half-width: a pass that
	// happened to land near the exact answer must not understate the
	// tier's intrinsic sampling noise.
	err1 := relErrVs(r1, out, boosted)
	if ciErr := r1.CI.Half / refScale(out, boosted); ciErr > err1 {
		err1 = ciErr
	}
	cal.relErr[1] = calSafety * err1

	e.calMu.Lock()
	e.cals[calKey(req.GraphID, spec.calID())] = cal
	e.calMu.Unlock()
	atomic.AddInt64(&e.ctr.TierCalibrations, 1)

	out.Tier = 2
	out.ErrorTargetMet = true
	return out, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// relErrVs is the relative disagreement between a cheap tier's answer
// and the exact one — the max over the quantities the request asked
// for, each against a denominator floored at 1 so near-zero exact
// values cannot blow the ratio up.
func relErrVs(got, exact EstimateResult, boosted bool) float64 {
	err := math.Abs(got.Spread-exact.Spread) / math.Max(1, math.Abs(exact.Spread))
	if boosted {
		if d := math.Abs(got.Boost-exact.Boost) / math.Max(1, math.Abs(exact.Boost)); d > err {
			err = d
		}
	}
	return err
}

// refScale is the headline quantity's magnitude, floored at 1.
func refScale(exact EstimateResult, boosted bool) float64 {
	v := exact.Spread
	if boosted {
		v = exact.Boost
	}
	return math.Max(1, math.Abs(v))
}
