package core

import (
	"context"
	"fmt"

	"github.com/kboost/kboost/internal/diffusion"
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rrset"
)

// MixPoint is one budget split evaluated by BudgetAllocation.
type MixPoint struct {
	SeedFrac      float64 // fraction of the budget spent on seeding
	NumSeeds      int
	NumBoost      int
	Seeds         []int32
	Boost         []int32
	BoostedSpread float64 // Monte-Carlo estimate of σ_S(B)
}

// BudgetAllocationOptions configures the seeding-vs-boosting sweep of
// Section VII-C (Figure 13).
type BudgetAllocationOptions struct {
	// BudgetSeeds is the number of seeds the whole budget buys (the paper
	// uses 100).
	BudgetSeeds int
	// CostRatio is seed cost / boost cost (the paper sweeps 100..800).
	CostRatio int
	// SeedFracs are the budget fractions spent on seeding (e.g. 0.2..1.0).
	SeedFracs []float64
	// Boosting algorithm options.
	Boost Options
	// Spread estimation.
	Sims int
}

// BudgetAllocation evaluates each budget split: it spends frac of the
// budget on IMM-selected seeds and the rest on PRR-Boost-selected
// boosted nodes, then estimates the resulting boosted spread.
func BudgetAllocation(g *graph.Graph, opt BudgetAllocationOptions) ([]MixPoint, error) {
	if opt.BudgetSeeds < 1 {
		return nil, fmt.Errorf("core: BudgetSeeds=%d must be >= 1", opt.BudgetSeeds)
	}
	if opt.CostRatio < 1 {
		return nil, fmt.Errorf("core: CostRatio=%d must be >= 1", opt.CostRatio)
	}
	if len(opt.SeedFracs) == 0 {
		return nil, fmt.Errorf("core: no seed fractions to evaluate")
	}
	if opt.Sims <= 0 {
		opt.Sims = 10000
	}
	bo := opt.Boost.WithDefaults()

	var out []MixPoint
	for _, frac := range opt.SeedFracs {
		if frac <= 0 || frac > 1 {
			return nil, fmt.Errorf("core: seed fraction %v out of (0,1]", frac)
		}
		numSeeds := int(frac*float64(opt.BudgetSeeds) + 0.5)
		if numSeeds < 1 {
			numSeeds = 1
		}
		numBoost := int((1 - frac) * float64(opt.BudgetSeeds) * float64(opt.CostRatio))
		if numBoost > g.N()-numSeeds {
			numBoost = g.N() - numSeeds
		}

		seedRes, err := rrset.SelectSeedsContext(context.Background(), g, numSeeds, rrset.Options{
			Epsilon: bo.Epsilon, Ell: bo.Ell, Seed: bo.Seed, Workers: bo.Workers,
			MaxSamples: bo.MaxSamples,
		})
		if err != nil {
			return nil, fmt.Errorf("core: selecting %d seeds: %w", numSeeds, err)
		}
		pt := MixPoint{
			SeedFrac: frac,
			NumSeeds: numSeeds,
			NumBoost: numBoost,
			Seeds:    seedRes.Seeds,
		}

		if numBoost > 0 {
			boostOpt := bo
			boostOpt.K = numBoost
			boostRes, err := PRRBoost(g, seedRes.Seeds, boostOpt)
			if err != nil {
				return nil, fmt.Errorf("core: boosting with k=%d: %w", numBoost, err)
			}
			pt.Boost = boostRes.BoostSet
		}

		spread, err := diffusion.EstimateSpread(g, pt.Seeds, pt.Boost, diffusion.Options{
			Sims: opt.Sims, Seed: bo.Seed, Workers: bo.Workers,
		})
		if err != nil {
			return nil, err
		}
		pt.BoostedSpread = spread
		out = append(out, pt)
	}
	return out, nil
}
