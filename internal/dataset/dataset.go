// Package dataset provides scaled synthetic stand-ins for the four
// social networks the paper evaluates on (Table 1).
//
// The original crawls (Digg, Flixster, Twitter, Flickr) with influence
// probabilities learned by the method of Goyal et al. are not
// redistributable. Each stand-in matches the statistics that drive
// PRR-Boost's behaviour: node/edge ratio (density), a heavy-tailed
// degree distribution from preferential attachment, and the average
// influence probability from Table 1. The scale factor shrinks node
// counts for laptop-size experiments while preserving density.
//
//	name      n(paper)  m(paper)  avg p(paper)
//	digg      28K       200K      0.239
//	flixster  96K       485K      0.228
//	twitter   323K      2.14M     0.608
//	flickr    1.45M     2.15M     0.013
package dataset

import (
	"fmt"
	"math"
	"sort"

	"github.com/kboost/kboost/internal/gen"
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rng"
)

// Spec describes one stand-in dataset.
type Spec struct {
	Name      string
	PaperN    int     // node count in the paper's Table 1
	PaperM    int     // edge count in the paper's Table 1
	AvgP      float64 // average influence probability in Table 1
	BackProb  float64 // reciprocity used by the scale-free generator
	paperDesc string
}

// The four stand-ins, in the paper's column order.
var (
	Digg     = Spec{Name: "digg", PaperN: 28000, PaperM: 200000, AvgP: 0.239, BackProb: 0.35, paperDesc: "Digg vote network"}
	Flixster = Spec{Name: "flixster", PaperN: 96000, PaperM: 485000, AvgP: 0.228, BackProb: 0.35, paperDesc: "Flixster rating network"}
	Twitter  = Spec{Name: "twitter", PaperN: 323000, PaperM: 2140000, AvgP: 0.608, BackProb: 0.5, paperDesc: "Twitter retweet network"}
	Flickr   = Spec{Name: "flickr", PaperN: 1450000, PaperM: 2150000, AvgP: 0.013, BackProb: 0.25, paperDesc: "Flickr favorite network"}
)

// All lists the four stand-ins in the paper's order.
var All = []Spec{Digg, Flixster, Twitter, Flickr}

// ByName returns the Spec with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range All {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown dataset %q (have digg, flixster, twitter, flickr)", name)
}

// Generate builds the stand-in graph at the given scale (e.g. scale=0.01
// gives 1% of the paper's node count) with boosting parameter beta
// (p' = 1-(1-p)^beta; the paper's default is 2). The graph is
// deterministic for a fixed (scale, beta, seed).
func (s Spec) Generate(scale, beta float64, seed uint64) (*graph.Graph, error) {
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("dataset: scale %v out of (0,1]", scale)
	}
	n := int(float64(s.PaperN) * scale)
	if n < 16 {
		n = 16
	}
	// Preserve density: edges per node from the paper's Table 1.
	perNode := int(float64(s.PaperM)/float64(s.PaperN) + 0.5)
	if perNode < 1 {
		perNode = 1
	}
	// The generator adds reciprocal arcs with probability BackProb, so
	// draw fewer forward arcs to land near the target density.
	fwd := int(float64(perNode)/(1+s.BackProb) + 0.5)
	if fwd < 1 {
		fwd = 1
	}
	r := rng.New(seed ^ hashName(s.Name))
	topo, err := gen.ScaleFree(n, fwd, s.BackProb, r)
	if err != nil {
		return nil, fmt.Errorf("dataset %s: %w", s.Name, err)
	}
	// Draw skewed probabilities, then calibrate the mean: the [lo, 0.999]
	// clamp of the exponential sampler biases the realized mean downward
	// for large targets (Twitter's 0.608), so rescale once toward the
	// Table-1 average before applying the boosting parameter.
	assign := gen.ExpMean(s.AvgP)
	probs := make([]float64, len(topo.Arcs))
	var sum float64
	for i, a := range topo.Arcs {
		probs[i] = assign(a[0], a[1], nil, r)
		sum += probs[i]
	}
	// A few fixed-point iterations: rescaling re-clamps the heavy tail,
	// so repeat until the realized mean converges onto the target.
	for iter := 0; iter < 4 && len(probs) > 0 && sum > 0; iter++ {
		factor := s.AvgP * float64(len(probs)) / sum
		sum = 0
		for i := range probs {
			p := probs[i] * factor
			if p > 0.999 {
				p = 0.999
			}
			probs[i] = p
			sum += p
		}
	}
	b := graph.NewBuilder(topo.N)
	for i, a := range topo.Arcs {
		p := probs[i]
		pb := 1 - math.Pow(1-p, beta)
		if pb < p {
			pb = p
		}
		if err := b.AddEdge(a[0], a[1], p, pb); err != nil {
			return nil, fmt.Errorf("dataset %s: %w", s.Name, err)
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("dataset %s: %w", s.Name, err)
	}
	// Keep the largest weakly connected component, as the paper does.
	wcc, _ := g.LargestWCC()
	return wcc, nil
}

// hashName gives each dataset an independent seed stream.
func hashName(name string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// InfluentialSeeds mirrors the paper's seed setup (i): the top-count
// nodes by out-weight as a fast stand-in ordering when an IMM selection
// is not required. The experiment harness uses rrset.SelectSeedsContext
// for the real IMM selection; this helper exists for cheap tests and
// examples.
func InfluentialSeeds(g *graph.Graph, count int) []int32 {
	type nw struct {
		node   int32
		weight float64
	}
	all := make([]nw, g.N())
	for u := int32(0); u < int32(g.N()); u++ {
		var w float64
		for _, p := range g.OutP(u) {
			w += p
		}
		all[u] = nw{node: u, weight: w}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].weight != all[j].weight {
			return all[i].weight > all[j].weight
		}
		return all[i].node < all[j].node
	})
	if count > len(all) {
		count = len(all)
	}
	seeds := make([]int32, count)
	for i := 0; i < count; i++ {
		seeds[i] = all[i].node
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	return seeds
}

// RandomSeeds mirrors the paper's seed setup (ii): count uniformly
// random distinct nodes.
func RandomSeeds(g *graph.Graph, count int, seed uint64) []int32 {
	r := rng.New(seed)
	if count > g.N() {
		count = g.N()
	}
	picks := r.Sample(g.N(), count)
	seeds := make([]int32, count)
	for i, v := range picks {
		seeds[i] = int32(v)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	return seeds
}
