package kboost

import "github.com/kboost/kboost/internal/lt"

// The boosted Linear Threshold extension (the paper's future-work
// direction, Section IX): thresholds θ_v ~ U[0,1], edge weights derived
// from the influence probabilities and normalized per node, boosted
// nodes receive the boosted weights. See internal/lt for the model
// definition.

// LTOptions configures boosted-LT Monte-Carlo estimation.
type LTOptions = lt.Options

// LTEstimateSpread estimates the expected boosted-LT spread σ^LT_S(B).
func LTEstimateSpread(g *Graph, seeds, boost []int32, opt LTOptions) (float64, error) {
	return lt.EstimateSpread(g, seeds, boost, opt)
}

// LTEstimateBoost estimates the boosted-LT boost Δ^LT_S(B).
func LTEstimateBoost(g *Graph, seeds, boost []int32, opt LTOptions) (float64, error) {
	return lt.EstimateBoost(g, seeds, boost, opt)
}

// LTGreedyBoost greedily selects k boost nodes under the boosted-LT
// model by Monte-Carlo marginal evaluation over a candidate pool of
// size candCap (0 picks a default). Heuristic: no approximation
// guarantee exists for boosted LT. Every marginal evaluation re-runs
// the full Monte-Carlo simulation; for repeated queries build an
// LTPool instead.
func LTGreedyBoost(g *Graph, seeds []int32, k, candCap int, opt LTOptions) ([]int32, float64, error) {
	return lt.GreedyBoost(g, seeds, k, candCap, opt)
}

// LTPool is a persistent, extendable pool of pre-sampled boosted-LT
// threshold profiles for a fixed (graph, seed set) — the LT analogue of
// the Engine's PRR pools. Each profile fixes every node's threshold
// θ_v, and the pool caches each profile's diffusion fixed point under
// the empty boost set; warm queries then evaluate boost sets
// incrementally from those cached states (LT activation is monotone in
// the boosted weights) instead of re-running Monte-Carlo from scratch.
//
//	pool, _ := kboost.NewLTPool(g, seeds, 1, 0)
//	pool.Extend(10000)                       // sample 10k profiles once
//	set, boost, _ := pool.GreedyBoost(20, 0) // lazy greedy, warm
//	spread, delta, _ := pool.Estimate(set)   // same profiles, one pass
//
// All pool estimates share possible worlds (common random numbers) and
// are bit-identical regardless of the worker count. The Engine serves
// this pool behind `mode:"lt"` boost and estimate queries, cached in
// the same LRU as PRR pools.
type LTPool = lt.Pool

// NewLTPool creates an empty boosted-LT profile pool; grow it with
// Extend. workers <= 0 means GOMAXPROCS.
func NewLTPool(g *Graph, seeds []int32, seed uint64, workers int) (*LTPool, error) {
	return lt.NewPool(g, seeds, seed, workers)
}
