// Package exp is the experiment harness: one runner per table/figure of
// the paper's evaluation (Sections VII-VIII), each printing rows that
// mirror the paper's artifact. cmd/boostexp drives it.
//
// Runs are scaled: the crawled datasets are replaced by synthetic
// stand-ins (see internal/dataset) and sizes default to laptop scale.
// Absolute numbers therefore differ from the paper; the shapes —
// algorithm orderings, speedups, ratio decay, crossovers — are the
// reproduction targets, and EXPERIMENTS.md records both sides.
package exp

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/kboost/kboost/internal/baselines"
	"github.com/kboost/kboost/internal/core"
	"github.com/kboost/kboost/internal/dataset"
	"github.com/kboost/kboost/internal/diffusion"
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rrset"
	"github.com/kboost/kboost/internal/texttab"
)

// Config controls the scale and determinism of every experiment.
type Config struct {
	// Scale shrinks the paper's dataset sizes (1.0 = paper size).
	// Default 0.02.
	Scale float64
	// Datasets to run on (default: all four stand-ins).
	Datasets []string
	// Beta is the boosting parameter p' = 1-(1-p)^beta (default 2).
	Beta float64
	// KValues is the boost-set size sweep (default {10, 50, 100}).
	KValues []int
	// InfSeedCount / RandSeedCount mirror the paper's 50 influential and
	// 500 random seeds, clamped to a quarter of the graph.
	InfSeedCount  int
	RandSeedCount int
	// Sims is the Monte-Carlo evaluation budget (paper: 20000; default
	// here 2000).
	Sims int
	// MaxSamples caps PRR/RR pool sizes (default 100000).
	MaxSamples int
	// Epsilon / Ell are the approximation parameters (paper: 0.5 / 1).
	Epsilon float64
	Ell     float64
	Seed    uint64
	Workers int
	// TreeN / TreeKs / TreeEps configure the bidirected-tree experiments.
	TreeN   int
	TreeKs  []int
	TreeEps []float64
	// Out receives the rendered tables (default ignored by runners; the
	// caller renders).
	Out io.Writer
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.02
	}
	if len(c.Datasets) == 0 {
		c.Datasets = []string{"digg", "flixster", "twitter", "flickr"}
	}
	if c.Beta < 1 {
		c.Beta = 2
	}
	if len(c.KValues) == 0 {
		c.KValues = []int{10, 50, 100}
	}
	if c.InfSeedCount <= 0 {
		c.InfSeedCount = 50
	}
	if c.RandSeedCount <= 0 {
		c.RandSeedCount = 500
	}
	if c.Sims <= 0 {
		c.Sims = 2000
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 100000
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 0.5
	}
	if c.Ell <= 0 {
		c.Ell = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.TreeN <= 0 {
		c.TreeN = 1000
	}
	if len(c.TreeKs) == 0 {
		c.TreeKs = []int{25, 50, 100}
	}
	if len(c.TreeEps) == 0 {
		c.TreeEps = []float64{0.2, 0.5, 1.0}
	}
	return c
}

// Runner produces the tables of one experiment.
type Runner func(cfg Config) ([]*texttab.Table, error)

// Registry maps experiment ids (paper artifact names) to runners.
var Registry = map[string]Runner{
	"table1": Table1,
	"fig5":   Fig5,
	"fig6":   Fig6,
	"table2": Table2,
	"fig7":   Fig7,
	"fig8":   Fig8,
	"fig9":   Fig9,
	"fig10":  Fig10,
	"fig11":  Fig11,
	"table3": Table3,
	"fig12":  Fig12,
	"fig13":  Fig13,
	"fig14":  Fig14,
	"fig15":  Fig15,
}

// IDs returns the registered experiment ids in stable order.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment and renders its tables to out.
func Run(id string, cfg Config, out io.Writer) error {
	r, ok := Registry[id]
	if !ok {
		return fmt.Errorf("exp: unknown experiment %q (have %v)", id, IDs())
	}
	tables, err := r(cfg)
	if err != nil {
		return fmt.Errorf("exp: %s: %w", id, err)
	}
	for _, t := range tables {
		if err := t.Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}

// --- shared workload helpers ---

// instance is a prepared dataset with both seed setups.
type instance struct {
	name      string
	g         *graph.Graph
	infSeeds  []int32 // IMM-selected influential seeds
	randSeeds []int32 // uniformly random seeds
}

func clampSeeds(n, want int) int {
	max := n / 4
	if max < 1 {
		max = 1
	}
	if want > max {
		return max
	}
	return want
}

// instanceCache avoids rebuilding stand-ins and re-running IMM seed
// selection when several experiments share a (dataset, scale, beta,
// seed) workload, which `boostexp -run all` does fourteen times over.
var instanceCache = struct {
	sync.Mutex
	m map[string]*instance
}{m: make(map[string]*instance)}

// loadInstance builds (or returns a cached) dataset stand-in with its
// seed sets.
func loadInstance(name string, cfg Config) (*instance, error) {
	key := fmt.Sprintf("%s|%g|%g|%d|%d|%d|%d|%d",
		name, cfg.Scale, cfg.Beta, cfg.Seed, cfg.InfSeedCount, cfg.RandSeedCount,
		cfg.MaxSamples, cfg.Workers)
	instanceCache.Lock()
	cached, ok := instanceCache.m[key]
	instanceCache.Unlock()
	if ok {
		return cached, nil
	}
	inst, err := buildInstance(name, cfg)
	if err != nil {
		return nil, err
	}
	instanceCache.Lock()
	instanceCache.m[key] = inst
	instanceCache.Unlock()
	return inst, nil
}

func buildInstance(name string, cfg Config) (*instance, error) {
	spec, err := dataset.ByName(name)
	if err != nil {
		return nil, err
	}
	g, err := spec.Generate(cfg.Scale, cfg.Beta, cfg.Seed)
	if err != nil {
		return nil, err
	}
	inst := &instance{name: name, g: g}
	nInf := clampSeeds(g.N(), cfg.InfSeedCount)
	res, err := rrset.SelectSeedsContext(context.Background(), g, nInf, rrset.Options{
		Epsilon: cfg.Epsilon, Ell: cfg.Ell, Seed: cfg.Seed,
		Workers: cfg.Workers, MaxSamples: cfg.MaxSamples,
	})
	if err != nil {
		return nil, fmt.Errorf("selecting seeds on %s: %w", name, err)
	}
	inst.infSeeds = res.Seeds
	inst.randSeeds = dataset.RandomSeeds(g, clampSeeds(g.N(), cfg.RandSeedCount), cfg.Seed+17)
	return inst, nil
}

// boostOf Monte-Carlo-evaluates Δ_S(B).
func boostOf(g *graph.Graph, seeds, boost []int32, cfg Config) (float64, error) {
	return diffusion.EstimateBoost(g, seeds, boost, diffusion.Options{
		Sims: cfg.Sims, Seed: cfg.Seed + 99, Workers: cfg.Workers,
	})
}

// bestOfSets evaluates each candidate set and returns the best boost
// (the paper reports the max across the four HighDegree variants).
func bestOfSets(g *graph.Graph, seeds []int32, sets [][]int32, cfg Config) (float64, error) {
	best := 0.0
	for _, b := range sets {
		v, err := boostOf(g, seeds, b, cfg)
		if err != nil {
			return 0, err
		}
		if v > best {
			best = v
		}
	}
	return best, nil
}

func coreOptions(cfg Config, k int) core.Options {
	return core.Options{
		K: k, Epsilon: cfg.Epsilon, Ell: cfg.Ell,
		Seed: cfg.Seed, Workers: cfg.Workers, MaxSamples: cfg.MaxSamples,
	}
}

func rrOptions(cfg Config) rrset.Options {
	return rrset.Options{
		Epsilon: cfg.Epsilon, Ell: cfg.Ell, Seed: cfg.Seed,
		Workers: cfg.Workers, MaxSamples: cfg.MaxSamples,
	}
}

// algorithms runs the six algorithms of Figures 5/10 for one (graph,
// seeds, k) and returns named boosts.
func algorithms(g *graph.Graph, seeds []int32, k int, cfg Config) (map[string]float64, error) {
	out := make(map[string]float64, 6)
	if k > g.N()-len(seeds) {
		k = g.N() - len(seeds)
	}
	if k < 1 {
		return nil, fmt.Errorf("k too small after clamping")
	}

	full, err := core.PRRBoost(g, seeds, coreOptions(cfg, k))
	if err != nil {
		return nil, err
	}
	if out["PRR-Boost"], err = boostOf(g, seeds, full.BoostSet, cfg); err != nil {
		return nil, err
	}

	lb, err := core.PRRBoostLB(g, seeds, coreOptions(cfg, k))
	if err != nil {
		return nil, err
	}
	if out["PRR-Boost-LB"], err = boostOf(g, seeds, lb.BoostSet, cfg); err != nil {
		return nil, err
	}

	if out["HighDegreeGlobal"], err = bestOfSets(g, seeds, baselines.HighDegreeGlobal(g, seeds, k), cfg); err != nil {
		return nil, err
	}
	if out["HighDegreeLocal"], err = bestOfSets(g, seeds, baselines.HighDegreeLocal(g, seeds, k), cfg); err != nil {
		return nil, err
	}

	pr := baselines.PageRankBoost(g, seeds, k, baselines.PageRankOptions{})
	if out["PageRank"], err = boostOf(g, seeds, pr, cfg); err != nil {
		return nil, err
	}

	ms, err := baselines.MoreSeeds(g, seeds, k, rrOptions(cfg))
	if err != nil {
		return nil, err
	}
	if out["MoreSeeds"], err = boostOf(g, seeds, ms, cfg); err != nil {
		return nil, err
	}
	return out, nil
}

var algoOrder = []string{
	"PRR-Boost", "PRR-Boost-LB", "HighDegreeGlobal",
	"HighDegreeLocal", "PageRank", "MoreSeeds",
}
