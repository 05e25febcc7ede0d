package diffusion

import (
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rng"
)

// BoostTarget selects which endpoint's boost status upgrades an edge
// probability from p to p'.
//
// The paper's Definition 1 boosts receivers: a boosted node is more
// easily influenced by its neighbors. The remark below Definition 1
// notes the symmetric variant — boosted users are more *influential* —
// where a newly activated boosted u influences its out-neighbors with
// p'. The PRR machinery is developed for the receiver model; the
// sender variant is provided at the simulation level for
// experimentation.
type BoostTarget uint8

const (
	// BoostReceivers is Definition 1: edge (u,v) uses p'(u,v) iff v is
	// boosted.
	BoostReceivers BoostTarget = iota
	// BoostSenders is the remark's variant: edge (u,v) uses p'(u,v) iff
	// u is boosted.
	BoostSenders
)

// SpreadOnceTarget runs one diffusion under the chosen boost variant
// and returns the number of activated nodes.
func (s *Simulator) SpreadOnceTarget(seeds []int32, boost []bool, target BoostTarget, r *rng.Source) int {
	if target == BoostReceivers {
		return s.SpreadOnce(seeds, boost, r)
	}
	g := s.g
	epoch := s.nextEpoch()
	s.queue = seedQueue(s.queue, s.mark, seeds, epoch)
	for qi := 0; qi < len(s.queue); qi++ {
		u := s.queue[qi]
		senderBoosted := boost != nil && boost[u]
		to := g.OutTo(u)
		p := g.OutP(u)
		pb := g.OutPBoost(u)
		for i, v := range to {
			if s.mark[v] == epoch {
				continue
			}
			prob := p[i]
			if senderBoosted {
				prob = pb[i]
			}
			if r.Bernoulli(prob) {
				s.mark[v] = epoch
				s.queue = append(s.queue, v)
			}
		}
	}
	return len(s.queue)
}

// EstimateSpreadTarget estimates σ_S(B) under the chosen boost variant.
func EstimateSpreadTarget(g *graph.Graph, seeds, boost []int32, target BoostTarget, opt Options) (float64, error) {
	if err := validateNodes(g, seeds, "seed"); err != nil {
		return 0, err
	}
	if err := validateNodes(g, boost, "boost"); err != nil {
		return 0, err
	}
	opt = opt.WithDefaults()
	mask := MaskFromSet(g.N(), boost)
	total := parallelSum(g, opt, func(sim *Simulator, r *rng.Source) float64 {
		return float64(sim.SpreadOnceTarget(seeds, mask, target, r))
	})
	return total / float64(opt.Sims), nil
}

// EstimateBoostTarget estimates Δ_S(B) under the chosen boost variant
// by differencing spread estimates that share RNG streams.
func EstimateBoostTarget(g *graph.Graph, seeds, boost []int32, target BoostTarget, opt Options) (float64, error) {
	if target == BoostReceivers {
		return EstimateBoost(g, seeds, boost, opt)
	}
	with, err := EstimateSpreadTarget(g, seeds, boost, target, opt)
	if err != nil {
		return 0, err
	}
	without, err := EstimateSpreadTarget(g, seeds, nil, target, opt)
	if err != nil {
		return 0, err
	}
	return with - without, nil
}
