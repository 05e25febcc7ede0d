package exp

import (
	"context"
	"fmt"
	"time"

	"github.com/kboost/kboost/internal/core"
	"github.com/kboost/kboost/internal/diffusion"
	"github.com/kboost/kboost/internal/prr"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/stats"
	"github.com/kboost/kboost/internal/texttab"
)

// Table1 reproduces Table 1: dataset statistics and the influence of
// the two seed setups.
func Table1(cfg Config) ([]*texttab.Table, error) {
	cfg = cfg.WithDefaults()
	t := texttab.New("Table 1: datasets (scaled stand-ins)",
		"dataset", "nodes", "edges", "avg p",
		"influence(inf seeds)", "#inf", "influence(rand seeds)", "#rand")
	for _, name := range cfg.Datasets {
		inst, err := loadInstance(name, cfg)
		if err != nil {
			return nil, err
		}
		st := inst.g.ComputeStats()
		infSpread, err := diffusion.EstimateSpread(inst.g, inst.infSeeds, nil,
			diffusion.Options{Sims: cfg.Sims, Seed: cfg.Seed, Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		randSpread, err := diffusion.EstimateSpread(inst.g, inst.randSeeds, nil,
			diffusion.Options{Sims: cfg.Sims, Seed: cfg.Seed, Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		t.AddRow(name, st.N, st.M, st.AvgP,
			infSpread, len(inst.infSeeds), randSpread, len(inst.randSeeds))
	}
	return []*texttab.Table{t}, nil
}

// boostVsK is the shared engine of Figures 5 and 10.
func boostVsK(cfg Config, title string, useRandomSeeds bool) ([]*texttab.Table, error) {
	var tables []*texttab.Table
	for _, name := range cfg.Datasets {
		inst, err := loadInstance(name, cfg)
		if err != nil {
			return nil, err
		}
		seeds := inst.infSeeds
		if useRandomSeeds {
			seeds = inst.randSeeds
		}
		t := texttab.New(fmt.Sprintf("%s — %s", title, name),
			append([]string{"k"}, algoOrder...)...)
		for _, k := range cfg.KValues {
			res, err := algorithms(inst.g, seeds, k, cfg)
			if err != nil {
				return nil, err
			}
			row := []interface{}{k}
			for _, a := range algoOrder {
				row = append(row, res[a])
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig5 reproduces Figure 5: boost vs k with influential seeds, six
// algorithms, all datasets.
func Fig5(cfg Config) ([]*texttab.Table, error) {
	cfg = cfg.WithDefaults()
	return boostVsK(cfg, "Figure 5: boost vs k (influential seeds)", false)
}

// Fig10 reproduces Figure 10: boost vs k with random seeds.
func Fig10(cfg Config) ([]*texttab.Table, error) {
	cfg = cfg.WithDefaults()
	return boostVsK(cfg, "Figure 10: boost vs k (random seeds)", true)
}

// runningTime is the shared engine of Figures 6 and 11.
func runningTime(cfg Config, title string, useRandomSeeds bool) ([]*texttab.Table, error) {
	t := texttab.New(title,
		"dataset", "k", "PRR-Boost (s)", "PRR-Boost-LB (s)", "speedup")
	for _, name := range cfg.Datasets {
		inst, err := loadInstance(name, cfg)
		if err != nil {
			return nil, err
		}
		seeds := inst.infSeeds
		if useRandomSeeds {
			seeds = inst.randSeeds
		}
		for _, k := range cfg.KValues {
			if k > inst.g.N()-len(seeds) {
				continue
			}
			t0 := time.Now()
			if _, err := core.PRRBoost(inst.g, seeds, coreOptions(cfg, k)); err != nil {
				return nil, err
			}
			full := time.Since(t0).Seconds()
			t1 := time.Now()
			if _, err := core.PRRBoostLB(inst.g, seeds, coreOptions(cfg, k)); err != nil {
				return nil, err
			}
			lb := time.Since(t1).Seconds()
			speedup := 0.0
			if lb > 0 {
				speedup = full / lb
			}
			t.AddRow(name, k, full, lb, speedup)
		}
	}
	return []*texttab.Table{t}, nil
}

// Fig6 reproduces Figure 6: running times (influential seeds).
func Fig6(cfg Config) ([]*texttab.Table, error) {
	cfg = cfg.WithDefaults()
	return runningTime(cfg, "Figure 6: running time (influential seeds)", false)
}

// Fig11 reproduces Figure 11: running times (random seeds).
func Fig11(cfg Config) ([]*texttab.Table, error) {
	cfg = cfg.WithDefaults()
	return runningTime(cfg, "Figure 11: running time (random seeds)", true)
}

// compression is the shared engine of Tables 2 and 3.
func compression(cfg Config, title string, useRandomSeeds bool) ([]*texttab.Table, error) {
	ks := []int{cfg.KValues[0], cfg.KValues[len(cfg.KValues)-1]}
	t := texttab.New(title,
		"k", "dataset", "uncompressed", "compressed", "ratio",
		"mem full (MB)", "mem LB (MB)", "avg |C_R|")
	for _, k := range ks {
		for _, name := range cfg.Datasets {
			inst, err := loadInstance(name, cfg)
			if err != nil {
				return nil, err
			}
			seeds := inst.infSeeds
			if useRandomSeeds {
				seeds = inst.randSeeds
			}
			if k > inst.g.N()-len(seeds) {
				continue
			}
			memBefore := stats.HeapAllocMB()
			full, err := core.PRRBoost(inst.g, seeds, coreOptions(cfg, k))
			if err != nil {
				return nil, err
			}
			memFull := stats.HeapAllocMB() - memBefore
			if memFull < 0 {
				memFull = 0
			}
			memBefore = stats.HeapAllocMB()
			lbRes, err := core.PRRBoostLB(inst.g, seeds, coreOptions(cfg, k))
			if err != nil {
				return nil, err
			}
			memLB := stats.HeapAllocMB() - memBefore
			if memLB < 0 {
				memLB = 0
			}
			ps := full.PoolStats
			t.AddRow(k, name, ps.AvgRawEdges, ps.AvgCompEdges, ps.CompressionRatio,
				memFull, memLB, lbRes.PoolStats.AvgCriticalSize)
		}
	}
	return []*texttab.Table{t}, nil
}

// Table2 reproduces Table 2: compression ratio and memory usage with
// influential seeds.
func Table2(cfg Config) ([]*texttab.Table, error) {
	cfg = cfg.WithDefaults()
	return compression(cfg, "Table 2: PRR-graph compression (influential seeds)", false)
}

// Table3 reproduces Table 3: compression with random seeds.
func Table3(cfg Config) ([]*texttab.Table, error) {
	cfg = cfg.WithDefaults()
	return compression(cfg, "Table 3: PRR-graph compression (random seeds)", true)
}

// sandwichRatios is the shared engine of Figures 7, 9 and 12: it
// perturbs the PRR-Boost solution into sets of varying quality and
// reports μ̂(B)/Δ̂(B) against Δ̂(B).
func sandwichRatios(cfg Config, title string, useRandomSeeds bool, betas []float64) ([]*texttab.Table, error) {
	const perturbations = 12
	t := texttab.New(title,
		"dataset", "beta", "k", "boost Δ̂", "μ̂", "ratio")
	for _, name := range cfg.Datasets {
		for _, beta := range betas {
			bcfg := cfg
			bcfg.Beta = beta
			inst, err := loadInstance(name, bcfg)
			if err != nil {
				return nil, err
			}
			seeds := inst.infSeeds
			if useRandomSeeds {
				seeds = inst.randSeeds
			}
			for _, k := range cfg.KValues {
				if k > inst.g.N()-len(seeds) {
					continue
				}
				res, err := core.PRRBoost(inst.g, seeds, coreOptions(bcfg, k))
				if err != nil {
					return nil, err
				}
				// A dedicated pool to evaluate μ̂/Δ̂ of perturbed sets.
				pool, err := prr.NewPool(inst.g, seeds, k, prr.ModeFull, cfg.Seed+5, cfg.Workers)
				if err != nil {
					return nil, err
				}
				samples := res.Samples
				if samples > cfg.MaxSamples {
					samples = cfg.MaxSamples
				}
				if samples < 2000 {
					samples = 2000
				}
				if err := pool.ExtendContext(context.Background(), samples); err != nil {
					return nil, err
				}
				r := rng.New(cfg.Seed + 31)
				sets := perturbSets(res.BoostSet, inst.g.N(), seeds, perturbations, r)
				for _, b := range sets {
					mu := pool.EstimateMu(b)
					delta, err := pool.EstimateDelta(b)
					if err != nil {
						return nil, err
					}
					if delta <= 0 {
						continue
					}
					// The paper plots only sets with at least half the best
					// boost.
					t.AddRow(name, beta, k, delta, mu, mu/delta)
				}
			}
		}
	}
	return []*texttab.Table{t}, nil
}

// perturbSets mimics the paper's Figure 7 setup: replace a random
// number of nodes in the solution with other non-seed nodes.
func perturbSets(base []int32, n int, seeds []int32, count int, r *rng.Source) [][]int32 {
	seedMask := make([]bool, n)
	for _, s := range seeds {
		seedMask[s] = true
	}
	sets := [][]int32{append([]int32(nil), base...)}
	for i := 1; i < count; i++ {
		b := append([]int32(nil), base...)
		if len(b) == 0 {
			break
		}
		replace := 1 + r.Intn(len(b))
		used := make(map[int32]bool, len(b))
		for _, v := range b {
			used[v] = true
		}
		for j := 0; j < replace; j++ {
			pos := r.Intn(len(b))
			for tries := 0; tries < 64; tries++ {
				v := int32(r.Intn(n))
				if seedMask[v] || used[v] {
					continue
				}
				used[v] = true
				b[pos] = v
				break
			}
		}
		sets = append(sets, b)
	}
	return sets
}

// Fig7 reproduces Figure 7: sandwich-approximation ratios with
// influential seeds.
func Fig7(cfg Config) ([]*texttab.Table, error) {
	cfg = cfg.WithDefaults()
	return sandwichRatios(cfg, "Figure 7: sandwich ratio μ/Δ (influential seeds)", false, []float64{cfg.Beta})
}

// Fig9 reproduces Figure 9: sandwich ratios with larger boosting
// parameters.
func Fig9(cfg Config) ([]*texttab.Table, error) {
	cfg = cfg.WithDefaults()
	cfg.KValues = cfg.KValues[len(cfg.KValues)/2 : len(cfg.KValues)/2+1]
	return sandwichRatios(cfg, "Figure 9: sandwich ratio vs beta (influential seeds)", false, []float64{4, 5, 6})
}

// Fig12 reproduces Figure 12: sandwich ratios with random seeds.
func Fig12(cfg Config) ([]*texttab.Table, error) {
	cfg = cfg.WithDefaults()
	return sandwichRatios(cfg, "Figure 12: sandwich ratio μ/Δ (random seeds)", true, []float64{cfg.Beta})
}

// Fig8 reproduces Figure 8: effect of the boosting parameter β on the
// achieved boost and the running time, k fixed at the sweep's midpoint.
func Fig8(cfg Config) ([]*texttab.Table, error) {
	cfg = cfg.WithDefaults()
	k := cfg.KValues[len(cfg.KValues)/2]
	t := texttab.New("Figure 8: effect of the boosting parameter (influential seeds)",
		"dataset", "beta", "k",
		"PRR-Boost Δ", "LB Δ", "PRR-Boost (s)", "LB (s)")
	for _, name := range cfg.Datasets {
		for _, beta := range []float64{2, 3, 4, 5, 6} {
			bcfg := cfg
			bcfg.Beta = beta
			inst, err := loadInstance(name, bcfg)
			if err != nil {
				return nil, err
			}
			if k > inst.g.N()-len(inst.infSeeds) {
				continue
			}
			t0 := time.Now()
			full, err := core.PRRBoost(inst.g, inst.infSeeds, coreOptions(bcfg, k))
			if err != nil {
				return nil, err
			}
			fullSec := time.Since(t0).Seconds()
			fullBoost, err := boostOf(inst.g, inst.infSeeds, full.BoostSet, bcfg)
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			lb, err := core.PRRBoostLB(inst.g, inst.infSeeds, coreOptions(bcfg, k))
			if err != nil {
				return nil, err
			}
			lbSec := time.Since(t1).Seconds()
			lbBoost, err := boostOf(inst.g, inst.infSeeds, lb.BoostSet, bcfg)
			if err != nil {
				return nil, err
			}
			t.AddRow(name, beta, k, fullBoost, lbBoost, fullSec, lbSec)
		}
	}
	return []*texttab.Table{t}, nil
}

// Fig13 reproduces Figure 13: budget allocation between seeding and
// boosting. Budgets are scaled down with the graphs (the paper's 100
// seeds and cost ratios 100-800 become 10 and 10-80).
func Fig13(cfg Config) ([]*texttab.Table, error) {
	cfg = cfg.WithDefaults()
	t := texttab.New("Figure 13: budget allocation seeding vs boosting",
		"dataset", "cost ratio", "seed frac", "#seeds", "#boost", "boosted spread")
	fracs := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	for _, name := range cfg.Datasets {
		inst, err := loadInstance(name, cfg)
		if err != nil {
			return nil, err
		}
		budgetSeeds := clampSeeds(inst.g.N(), 10)
		// Keep only cost ratios whose full-boost budgets fit the graph;
		// on tiny graphs fall back to the largest feasible ratio.
		ratios := []int{}
		for _, r := range []int{10, 20, 40, 80} {
			if budgetSeeds*r <= inst.g.N() {
				ratios = append(ratios, r)
			}
		}
		if len(ratios) == 0 {
			r := inst.g.N() / budgetSeeds
			if r < 1 {
				r = 1
			}
			ratios = []int{r}
		}
		for _, ratio := range ratios {
			pts, err := core.BudgetAllocation(inst.g, core.BudgetAllocationOptions{
				BudgetSeeds: budgetSeeds,
				CostRatio:   ratio,
				SeedFracs:   fracs,
				Boost:       coreOptions(cfg, 1),
				Sims:        cfg.Sims,
			})
			if err != nil {
				return nil, err
			}
			for _, pt := range pts {
				t.AddRow(name, ratio, pt.SeedFrac, pt.NumSeeds, pt.NumBoost, pt.BoostedSpread)
			}
		}
	}
	return []*texttab.Table{t}, nil
}
