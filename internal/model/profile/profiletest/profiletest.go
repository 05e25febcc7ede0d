// Package profiletest holds the naive full-resimulation references the
// pooled models' incremental estimates and selections are
// property-tested against, and the contract oracle for the gains half
// of profile.Cascade.Delta. It is imported only by tests.
package profiletest

import (
	"fmt"
	"slices"

	"github.com/kboost/kboost/internal/model/profile"
)

// NaiveSpread re-simulates every profile of p from scratch under the
// boost set — the reference for Pool.Estimate's σ̂.
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

// CheckGains is the contract oracle for the greedy half of
// profile.Cascade.Delta. On every profile of p, with boost set bset and
// every other non-seed node a candidate, it checks against Simulate
// re-runs of that profile that
//   - Delta's activations and every reported gain are exact,
//   - no candidate with a positive true gain is missing, and
//   - every node whose boosting changes the profile's activations or
//     some candidate's gain lies in the base frontier or the touch set,
//     the rule the greedy re-evaluates profiles by.
//
// It returns the first violation, or nil. Each profile costs O(n²)
// simulations, so p should be tiny.
func CheckGains[W, S any](p *profile.Pool[W, S], bset []int32) error {
	n := p.Graph().N()
	mask := make([]bool, n)
	for _, v := range bset {
		mask[v] = true
	}
	open := make([]bool, n)
	for v := range open {
		open[v] = !mask[v] && !p.SeedMask()[v]
	}
	c, s := p.Cascade(), p.Scratch()
	defer p.PutScratch(s)
	// sim re-runs the profile seeded by ps under bset plus extra.
	sim := func(ps uint64, extra ...int32) int {
		for _, v := range extra {
			mask[v] = true
		}
		got := c.Simulate(ps, mask, s)
		for _, v := range extra {
			mask[v] = false
		}
		return got
	}
	want := make([]int, n)
	for pi := 0; pi < p.NumProfiles(); pi++ {
		pr := p.Profile(pi)
		delta, gains, touch := p.ProfileGains(pi, bset, mask, open)
		base := sim(pr.Seed)
		if delta != base-len(pr.Active) {
			return fmt.Errorf("profile %d: bset %v adds %d activations, want %d", pi, bset, delta, base-len(pr.Active))
		}
		for v := int32(0); int(v) < n; v++ {
			if want[v] = 0; open[v] {
				want[v] = sim(pr.Seed, v) - base
			}
			if gains[v] != want[v] {
				return fmt.Errorf("profile %d: bset %v: node %d gains %d, want %d", pi, bset, v, gains[v], want[v])
			}
		}
		for x := int32(0); int(x) < n; x++ {
			if mask[x] || slices.Contains(pr.Front, x) || slices.Contains(touch, x) {
				continue
			}
			if sim(pr.Seed, x) != base {
				return fmt.Errorf("profile %d: bset %v: boosting %d, outside frontier %v and touch set %v, changes the activations", pi, bset, x, pr.Front, touch)
			}
			for v := int32(0); int(v) < n; v++ {
				if open[v] && v != x && sim(pr.Seed, x, v)-base != want[v] {
					return fmt.Errorf("profile %d: bset %v: boosting %d, outside frontier %v and touch set %v, changes candidate %d's gain", pi, bset, x, pr.Front, touch, v)
				}
			}
		}
	}
	return nil
}
