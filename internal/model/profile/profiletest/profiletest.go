// Package profiletest holds the naive full-resimulation references the
// pooled models' incremental estimates and selections are
// property-tested against. It is imported only by tests.
package profiletest

import (
	"slices"

	"github.com/kboost/kboost/internal/model/profile"
)

// NaiveSpread re-simulates every profile of p from scratch under the
// boost set — the reference for Pool.EstimateSpread.
func NaiveSpread[W, S any](p *profile.Pool[W, S], boost []int32) float64 {
	mask := make([]bool, p.Graph().N())
	for _, v := range boost {
		mask[v] = true
	}
	return float64(resimulate(p, mask)) / float64(p.NumProfiles())
}

// resimulate returns Σ_i |active_i(mask)| by full re-simulation.
func resimulate[W, S any](p *profile.Pool[W, S], mask []bool) int64 {
	c := p.Cascade()
	s := p.Scratch()
	defer p.PutScratch(s)
	var sum int64
	for pi := 0; pi < p.NumProfiles(); pi++ {
		sum += int64(c.Simulate(p.Profile(pi).Seed, mask, s))
	}
	return sum
}

// NaiveGreedy is the reference greedy: each round it re-simulates every
// profile from scratch for every remaining default candidate (see
// profile.Candidates) and takes the best — ties toward the smaller node
// id, stopping when no candidate adds activations. It returns the
// chosen nodes in pick order and the pooled Δ̂ of the chosen set.
func NaiveGreedy[W, S any](p *profile.Pool[W, S], k, candCap int) ([]int32, float64, error) {
	if err := p.CheckSelect(k); err != nil {
		return nil, 0, err
	}
	cands := profile.Candidates(p.Graph(), p.SeedMask(), k, candCap)
	slices.Sort(cands)
	mask := make([]bool, p.Graph().N())
	curSum := p.BaseSum()
	var chosen []int32
	for len(chosen) < k {
		best := int32(-1)
		bestSum := curSum
		for _, v := range cands {
			if mask[v] {
				continue
			}
			mask[v] = true
			if sum := resimulate(p, mask); sum > bestSum {
				best, bestSum = v, sum
			}
			mask[v] = false
		}
		if best < 0 {
			break
		}
		chosen = append(chosen, best)
		mask[best] = true
		curSum = bestSum
	}
	return chosen, float64(curSum-p.BaseSum()) / float64(p.NumProfiles()), nil
}
