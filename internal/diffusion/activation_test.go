package diffusion

import (
	"sync"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/shard"
)

// EstimateActivation estimates the per-node activation probability under
// seeds and boost. It returns a slice of length g.N(); simulation i
// draws from rng.StreamSeed(opt.Seed, i), as EstimateSpread's does.
// Only the golden, consistency and analytic-probability tests use it,
// so it lives with them rather than in the package.
func EstimateActivation(g *graph.Graph, seeds, boost []int32, opt Options) ([]float64, error) {
	opt, mask, err := prepare(g, seeds, boost, opt)
	if err != nil {
		return nil, err
	}

	counts := make([]int64, g.N())
	var mu sync.Mutex
	shard.Each(opt.Sims, opt.Workers, func(_, lo, hi int) {
		sim := NewSimulator(g)
		local := make([]int64, g.N())
		var r rng.Source
		for i := lo; i < hi; i++ {
			r.ReseedStream(opt.Seed, uint64(i))
			sim.SpreadOnce(seeds, mask, &r)
			// Nodes activated in this run carry the current epoch.
			for v := range local {
				if sim.mark[v] == sim.epoch {
					local[v]++
				}
			}
		}
		mu.Lock()
		for v := range counts {
			counts[v] += local[v]
		}
		mu.Unlock()
	})
	probs := make([]float64, g.N())
	for v := range probs {
		probs[v] = float64(counts[v]) / float64(opt.Sims)
	}
	return probs, nil
}
