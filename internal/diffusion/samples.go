package diffusion

import (
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/shard"
)

// EstimateSamples runs opt.Sims coupled boosted-IC replicates and
// returns the per-simulation boosted spread and boost delta samples
// (delta is all zeros when boost is empty). Unlike EstimateSpread /
// EstimateBoost — which split one root stream per worker — each
// simulation here draws from its own stateless stream
// rng.StreamSeed(opt.Seed, simIndex), so the returned vectors are
// bit-identical for every worker count: the partitioning only decides
// who fills which slot. This is the engine's tier-1 estimator; the
// sample vectors feed stats.Summarize for confidence intervals, which
// the mean-only estimators above cannot provide.
func EstimateSamples(g *graph.Graph, seeds, boost []int32, opt Options) (spread, delta []float64, err error) {
	if err := validateNodes(g, seeds, "seed"); err != nil {
		return nil, nil, err
	}
	if err := validateNodes(g, boost, "boost"); err != nil {
		return nil, nil, err
	}
	opt = opt.WithDefaults()
	mask := MaskFromSet(g.N(), boost)
	spread = make([]float64, opt.Sims)
	delta = make([]float64, opt.Sims)
	pair := len(boost) > 0

	shard.Each(opt.Sims, opt.Workers, func(_, lo, hi int) {
		sim := NewSimulator(g)
		var r rng.Source
		for i := lo; i < hi; i++ {
			r.ReseedStream(opt.Seed, uint64(i))
			if pair {
				base, boosted := sim.PairOnce(seeds, mask, &r)
				spread[i] = float64(boosted)
				delta[i] = float64(boosted - base)
			} else {
				spread[i] = float64(sim.SpreadOnce(seeds, mask, &r))
			}
		}
	})
	return spread, delta, nil
}
