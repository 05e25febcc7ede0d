package lt

import (
	"fmt"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/model/profile"
	"github.com/kboost/kboost/internal/rng"
)

// EstimateSamples runs opt.Sims boosted-LT replicates and returns the
// per-simulation boosted spread and boost delta samples (delta is all
// zeros when boost is empty). Each simulation draws from its own
// stateless stream rng.StreamSeed(opt.Seed, simIndex) — reseeding the
// stream between the boosted and base runs of one replicate, the same
// common-random-numbers coupling EstimateBoost uses — so the returned
// vectors are bit-identical for every worker count. This is the
// engine's tier-1 estimator for mode "lt"; the sample vectors feed
// stats.Summarize for confidence intervals.
func EstimateSamples(g *graph.Graph, seeds, boost []int32, opt Options) (spread, delta []float64, err error) {
	for _, v := range append(append([]int32(nil), seeds...), boost...) {
		if v < 0 || int(v) >= g.N() {
			return nil, nil, fmt.Errorf("lt: node %d out of range [0,%d)", v, g.N())
		}
	}
	opt = opt.withDefaults()
	m := New(g)
	mask := make([]bool, g.N())
	for _, v := range boost {
		mask[v] = true
	}
	spread = make([]float64, opt.Sims)
	delta = make([]float64, opt.Sims)
	pair := len(boost) > 0

	profile.ForChunks(opt.Sims, opt.Workers, func(_, lo, hi int) {
		sim := NewSimulator(m)
		var r rng.Source
		for i := lo; i < hi; i++ {
			r.ReseedStream(opt.Seed, uint64(i))
			boosted := float64(sim.SpreadOnce(seeds, mask, &r))
			spread[i] = boosted
			if pair {
				r.ReseedStream(opt.Seed, uint64(i))
				delta[i] = boosted - float64(sim.SpreadOnce(seeds, nil, &r))
			}
		}
	})
	launched := int64(opt.Sims)
	if pair {
		launched *= 2
	}
	mcSims.Add(launched)
	return spread, delta, nil
}
