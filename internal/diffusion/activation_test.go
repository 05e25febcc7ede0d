package diffusion

import (
	"sync"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/shard"
)

// EstimateActivation estimates the per-node activation probability under
// seeds and boost. It returns a slice of length g.N(). Only the golden,
// consistency and analytic-probability tests use it, so it lives with
// them rather than in the package.
func EstimateActivation(g *graph.Graph, seeds, boost []int32, opt Options) ([]float64, error) {
	if err := validateNodes(g, seeds, "seed"); err != nil {
		return nil, err
	}
	if err := validateNodes(g, boost, "boost"); err != nil {
		return nil, err
	}
	opt = opt.WithDefaults()
	mask := MaskFromSet(g.N(), boost)

	counts := make([]int64, g.N())
	var mu sync.Mutex
	streams := Streams(opt)
	shard.Each(opt.Sims, opt.Workers, func(w, lo, hi int) {
		sim := NewSimulator(g)
		local := make([]int64, g.N())
		for i := lo; i < hi; i++ {
			sim.SpreadOnce(seeds, mask, streams[w])
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
