package diffusion

import (
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rng"
)

// EstimateSamples runs opt.Sims coupled boosted-IC replicates and
// returns the per-simulation boosted spread and boost delta samples
// (delta is all zeros when boost is empty). It runs on Replicate, the
// loop of the mean estimators, so replicate i draws from the stream
// rng.StreamSeed(opt.Seed, i) and the returned vectors are
// bit-identical for every worker count; with a boost set, delta's mean
// is exactly EstimateBoost's answer. This is the engine's tier-1
// estimator; the sample vectors feed stats.Summarize for confidence
// intervals, which the mean-only estimators cannot provide.
func EstimateSamples(g *graph.Graph, seeds, boost []int32, opt Options) (spread, delta []float64, err error) {
	opt, mask, err := prepare(g, seeds, boost, opt)
	if err != nil {
		return nil, nil, err
	}
	spread = make([]float64, opt.Sims)
	delta = make([]float64, opt.Sims)
	pair := len(boost) > 0
	Replicate(opt, func() *Simulator { return NewSimulator(g) }, func(sim *Simulator, i int, r *rng.Source) int {
		if pair {
			base, boosted := sim.PairOnce(seeds, mask, r)
			spread[i] = float64(boosted)
			delta[i] = float64(boosted - base)
		} else {
			spread[i] = float64(sim.SpreadOnce(seeds, mask, r))
		}
		return 0
	})
	return spread, delta, nil
}
