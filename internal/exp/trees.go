package exp

import (
	"context"
	"fmt"
	"time"

	"github.com/kboost/kboost/internal/gen"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/rrset"
	"github.com/kboost/kboost/internal/texttab"
	"github.com/kboost/kboost/internal/tree"
)

// makeTree mirrors the paper's Section VIII setup: a complete binary
// bidirected tree with trivalency probabilities, β=2, and seeds chosen
// by IMM.
func makeTree(n int, numSeeds int, beta float64, seed uint64, cfg Config) (*tree.Tree, error) {
	r := rng.New(seed)
	parents := gen.CompleteBinaryTreeParents(n)
	g, err := gen.BidirectedTree(parents, gen.Trivalency(), beta, r)
	if err != nil {
		return nil, err
	}
	if numSeeds > n/4 {
		numSeeds = n / 4
	}
	if numSeeds < 1 {
		numSeeds = 1
	}
	res, err := rrset.SelectSeedsContext(context.Background(), g, numSeeds, rrset.Options{
		Epsilon: cfg.Epsilon, Ell: cfg.Ell, Seed: seed,
		Workers: cfg.Workers, MaxSamples: cfg.MaxSamples,
	})
	if err != nil {
		return nil, err
	}
	return tree.FromGraph(g, res.Seeds)
}

// Fig14 reproduces Figure 14: Greedy-Boost vs DP-Boost(ε) on a fixed
// tree, sweeping k: achieved boost and running time.
func Fig14(cfg Config) ([]*texttab.Table, error) {
	cfg = cfg.WithDefaults()
	tr, err := makeTree(cfg.TreeN, 50, cfg.Beta, cfg.Seed, cfg)
	if err != nil {
		return nil, err
	}
	boost := texttab.New(
		fmt.Sprintf("Figure 14a: boost of influence on a binary tree (n=%d)", cfg.TreeN),
		append([]string{"k", "Greedy-Boost"}, epsColumns(cfg.TreeEps)...)...)
	times := texttab.New(
		fmt.Sprintf("Figure 14b: running time (s) on a binary tree (n=%d)", cfg.TreeN),
		append([]string{"k", "Greedy-Boost"}, epsColumns(cfg.TreeEps)...)...)
	for _, k := range cfg.TreeKs {
		t0 := time.Now()
		greedy, err := tree.GreedyBoost(tr, k)
		if err != nil {
			return nil, err
		}
		gSec := time.Since(t0).Seconds()
		boostRow := []interface{}{k, greedy.Delta}
		timeRow := []interface{}{k, gSec}
		for _, eps := range cfg.TreeEps {
			t1 := time.Now()
			dp, err := tree.DPBoost(tr, k, tree.DPOptions{Epsilon: eps})
			if err != nil {
				return nil, err
			}
			boostRow = append(boostRow, dp.Delta)
			timeRow = append(timeRow, time.Since(t1).Seconds())
		}
		boost.AddRow(boostRow...)
		times.AddRow(timeRow...)
	}
	return []*texttab.Table{boost, times}, nil
}

// Fig15 reproduces Figure 15: Greedy-Boost vs DP-Boost(ε=0.5) across
// tree sizes for several k.
func Fig15(cfg Config) ([]*texttab.Table, error) {
	cfg = cfg.WithDefaults()
	sizes := []int{cfg.TreeN / 2, cfg.TreeN, cfg.TreeN * 2}
	boost := texttab.New("Figure 15a: boost of influence vs tree size (ε=0.5)",
		"n", "k", "Greedy-Boost", "DP-Boost")
	times := texttab.New("Figure 15b: running time (s) vs tree size (ε=0.5)",
		"n", "k", "Greedy-Boost", "DP-Boost")
	for _, n := range sizes {
		tr, err := makeTree(n, 50, cfg.Beta, cfg.Seed, cfg)
		if err != nil {
			return nil, err
		}
		for _, k := range cfg.TreeKs {
			t0 := time.Now()
			greedy, err := tree.GreedyBoost(tr, k)
			if err != nil {
				return nil, err
			}
			gSec := time.Since(t0).Seconds()
			t1 := time.Now()
			dp, err := tree.DPBoost(tr, k, tree.DPOptions{Epsilon: 0.5})
			if err != nil {
				return nil, err
			}
			dpSec := time.Since(t1).Seconds()
			boost.AddRow(n, k, greedy.Delta, dp.Delta)
			times.AddRow(n, k, gSec, dpSec)
		}
	}
	return []*texttab.Table{boost, times}, nil
}

func epsColumns(eps []float64) []string {
	out := make([]string, len(eps))
	for i, e := range eps {
		out[i] = fmt.Sprintf("DP-Boost(ε=%.2g)", e)
	}
	return out
}
