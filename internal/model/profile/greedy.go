package profile

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rng"
)

// CandidateCap resolves a greedy candidate-pool cap: candCap < k falls
// back to 4k, the candidate budget every pooled greedy in this repo
// uses.
func CandidateCap(k, candCap int) int {
	if candCap < k {
		return 4 * k
	}
	return candCap
}

// Candidates returns the default greedy candidate pool: non-seed nodes
// ordered by raw incoming boost uplift Σ (p'−p) descending (ties toward
// the smaller id), capped at CandidateCap(k, candCap). The uplift is
// each model's natural first-order proxy for what boosting a node adds.
func Candidates(g *graph.Graph, seedMask []bool, k, candCap int) []int32 {
	candCap = CandidateCap(k, candCap)
	type nw struct {
		v int32
		w float64
	}
	pool := make([]nw, 0, g.N())
	for v := int32(0); int(v) < g.N(); v++ {
		if seedMask[v] {
			continue
		}
		var wsum float64
		p := g.InP(v)
		pb := g.InPBoost(v)
		for i := range p {
			wsum += pb[i] - p[i]
		}
		pool = append(pool, nw{v, wsum})
	}
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].w != pool[j].w {
			return pool[i].w > pool[j].w
		}
		return pool[i].v < pool[j].v
	})
	if len(pool) > candCap {
		pool = pool[:candCap]
	}
	out := make([]int32, len(pool))
	for i, c := range pool {
		out[i] = c.v
	}
	return out
}

// CheckSelect validates a selection request against the pool.
func (p *Pool[W, S]) CheckSelect(k int) error {
	if k < 1 {
		return fmt.Errorf("%s: k=%d must be >= 1", p.name, k)
	}
	if len(p.profileSeed) == 0 {
		return fmt.Errorf("%s: selection on an empty pool (call Extend first)", p.name)
	}
	return nil
}

// Eligible returns the listed candidates that may be boosted: in-range
// non-seed nodes, in list order.
func (p *Pool[W, S]) Eligible(cands []int32) []int32 {
	ok := make([]int32, 0, len(cands))
	for _, v := range cands {
		if v >= 0 && int(v) < p.g.N() && !p.seedMask[v] {
			ok = append(ok, v)
		}
	}
	return ok
}

// SelectParallelMin is the minimum number of candidates per greedy
// round before gain evaluation fans out to the pool's workers; a
// variable so tests can force the parallel path on small pools.
var SelectParallelMin = 16

// GreedyBoostContext greedily selects up to k boost nodes maximizing
// the pooled boost estimate over the default candidate pool (see
// Candidates; candCap < k picks the 4k default). It returns the chosen
// nodes in pick order and the pooled Δ̂ of the chosen set, stopping
// early when no candidate adds activations in any profile.
//
// The greedy is exhaustive, made cheap by the frontier index: a
// candidate's delta is nonzero only in profiles where some member of
// (chosen ∪ {candidate}) sits in the base frontier, so each round
// evaluates every candidate over the merged posting lists — typically
// a small fraction of R. Candidates are evaluated in parallel and the
// argmax (ties toward the smaller id) is applied serially, so results
// are bit-identical for every worker count and to a full
// re-simulation greedy. ctx is polled once per round.
func (p *Pool[W, S]) GreedyBoostContext(ctx context.Context, k, candCap int) ([]int32, float64, error) {
	if err := p.CheckSelect(k); err != nil {
		return nil, 0, err
	}
	return p.greedyBoost(ctx, k, Candidates(p.g, p.seedMask, k, candCap))
}

// GreedyBoostAmongContext is GreedyBoostContext over an explicit
// candidate list instead of the uplift-ranked default pool: only listed
// non-seed nodes may be picked. Callers (the engine's tier-0
// pre-filter) supply a shortlist from a cheap closed-form ranking;
// out-of-range ids and seeds are ignored.
func (p *Pool[W, S]) GreedyBoostAmongContext(ctx context.Context, k int, cands []int32) ([]int32, float64, error) {
	if err := p.CheckSelect(k); err != nil {
		return nil, 0, err
	}
	return p.greedyBoost(ctx, k, p.Eligible(cands))
}

// greedyBoost is the exhaustive greedy over a resolved candidate list.
func (p *Pool[W, S]) greedyBoost(ctx context.Context, k int, cands []int32) ([]int32, float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	chosenMask := make([]bool, p.g.N())
	var chosen []int32
	var profsChosen []int32 // sorted union of chosen's posting lists
	var curDelta int64      // Σ_profiles delta(chosen), integer-exact
	gains := make([]int64, len(cands))

	for len(chosen) < k {
		// One poll per round: evalGains dominates a round, so this
		// bounds cancellation latency to one sweep while costing
		// nothing measurable on the warm path.
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		p.evalGains(cands, chosen, chosenMask, profsChosen, curDelta, gains)
		best := int32(-1)
		var bestGain int64
		for ci, c := range cands {
			if chosenMask[c] {
				continue
			}
			if g := gains[ci]; g > 0 && (g > bestGain || (g == bestGain && c < best)) {
				best, bestGain = c, g
			}
		}
		if best < 0 {
			break
		}
		chosen = append(chosen, best)
		chosenMask[best] = true
		curDelta += bestGain
		profsChosen = p.mergeFrontierProfiles(profsChosen, []int32{best})
	}
	return chosen, float64(curDelta) / float64(len(p.profileSeed)), nil
}

// evalGains fills gains[ci] with candidate cands[ci]'s marginal delta
// over the current chosen set: Σ delta(chosen ∪ {c}) over the merged
// posting lists, minus the chosen set's own delta. Each candidate is a
// pure function of (pool, chosen, candidate), so the parallel fan-out
// cannot change results.
func (p *Pool[W, S]) evalGains(cands, chosen []int32, chosenMask []bool, profsChosen []int32, curDelta int64, gains []int64) {
	workers := p.workers
	if len(cands) < SelectParallelMin {
		workers = 1
	}
	ForChunks(len(cands), workers, func(_, lo, hi int) {
		s := p.Scratch()
		defer p.PutScratch(s)
		for ci := lo; ci < hi; ci++ {
			c := cands[ci]
			if chosenMask[c] {
				gains[ci] = 0
				continue
			}
			var sum int64
			for _, pi := range p.mergeFrontierProfiles(profsChosen, cands[ci:ci+1]) {
				sum += int64(p.c.Delta(p.Profile(int(pi)), chosen, chosenMask, c, s))
			}
			gains[ci] = sum - curDelta
		}
	})
}

// EstimateSamples is the tier-1 estimator of a pooled model: sims
// pool-free replicates returning the per-simulation boosted spread and
// coupled boost delta (all zeros when boost is empty). Replicate i's
// world is the profile seeded by rng.StreamSeed(seed, i) — a stateless
// hash, so the boosted and base runs of one replicate share the exact
// same world (perfect common-random-numbers coupling: a delta is never
// negative) and the vectors are bit-identical for every worker count.
// name prefixes error messages; mk builds the model's cascade over the
// sorted, deduplicated seed set. The vectors feed stats.Summarize for
// confidence intervals.
func EstimateSamples[W, S any](name string, g *graph.Graph, seeds, boost []int32, sims int, seed uint64, workers int, mk func(seeds []int32) Cascade[W, S]) (spread, delta []float64, err error) {
	for _, v := range append(append([]int32(nil), seeds...), boost...) {
		if v < 0 || int(v) >= g.N() {
			return nil, nil, fmt.Errorf("%s: node %d out of range [0,%d)", name, v, g.N())
		}
	}
	if sims <= 0 {
		return nil, nil, fmt.Errorf("%s: sims=%d must be >= 1", name, sims)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sorted, _ := dedupSeeds(g.N(), seeds)
	c := mk(sorted)
	mask := make([]bool, g.N())
	for _, v := range boost {
		mask[v] = true
	}
	spread = make([]float64, sims)
	delta = make([]float64, sims)
	pair := len(boost) > 0
	ForChunks(sims, workers, func(_, lo, hi int) {
		s := c.NewScratch()
		for i := lo; i < hi; i++ {
			ps := rng.StreamSeed(seed, uint64(i))
			spread[i] = float64(c.Simulate(ps, mask, s))
			if pair {
				delta[i] = spread[i] - float64(c.Simulate(ps, nil, s))
			}
		}
	})
	return spread, delta, nil
}
