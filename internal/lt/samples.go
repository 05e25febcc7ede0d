package lt

import (
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rng"
)

// EstimateSamples runs opt.Sims boosted-LT replicates and returns the
// per-simulation boosted spread and boost delta samples (delta is all
// zeros when boost is empty). It runs on EstimateSpread's loop, so
// replicate i draws from the stream rng.StreamSeed(opt.Seed, i), and
// with a boost set it reseeds that stream for the base run, the same
// common-random-numbers coupling EstimateBoost uses. The returned
// vectors are therefore bit-identical for every worker count, and
// spread's mean is exactly EstimateSpread's answer. This is the
// engine's tier-1 estimator for mode "lt"; the sample vectors feed
// stats.Summarize for confidence intervals.
func EstimateSamples(g *graph.Graph, seeds, boost []int32, opt Options) (spread, delta []float64, err error) {
	opt, mask, err := prepare(g, seeds, boost, opt)
	if err != nil {
		return nil, nil, err
	}
	spread = make([]float64, opt.Sims)
	delta = make([]float64, opt.Sims)
	pair := len(boost) > 0
	replicate(New(g), opt, func(sim *Simulator, i int, r *rng.Source) int {
		boosted := sim.SpreadOnce(seeds, mask, r)
		spread[i] = float64(boosted)
		if pair {
			r.ReseedStream(opt.Seed, uint64(i))
			delta[i] = float64(boosted - sim.SpreadOnce(seeds, nil, r))
		}
		return 0
	})
	if pair {
		mcSims.Add(int64(opt.Sims))
	}
	return spread, delta, nil
}
