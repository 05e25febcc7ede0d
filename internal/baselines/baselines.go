// Package baselines implements the heuristic comparators the paper
// evaluates against (Section VII): HighDegreeGlobal, HighDegreeLocal,
// PageRank and MoreSeeds. None of them carries an approximation
// guarantee for the k-boosting problem; they exist to show how much
// PRR-Boost gains over intuitive node-importance heuristics.
package baselines

import (
	"context"
	"fmt"
	"sort"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rrset"
)

// DegreeKind enumerates the four weighted-degree definitions of the
// HighDegree baselines.
type DegreeKind int

const (
	// OutSum: sum of influence probabilities on outgoing edges.
	OutSum DegreeKind = iota
	// OutSumDiscounted: same, but edges into already-chosen nodes are
	// ignored.
	OutSumDiscounted
	// InBoostGain: sum of p'-p over incoming edges (how much boosting
	// this node raises its own susceptibility).
	InBoostGain
	// InBoostGainDiscounted: same, but edges from already-chosen nodes
	// are ignored.
	InBoostGainDiscounted

	numDegreeKinds
)

func (k DegreeKind) String() string {
	switch k {
	case OutSum:
		return "out-sum"
	case OutSumDiscounted:
		return "out-sum-discounted"
	case InBoostGain:
		return "in-boost-gain"
	case InBoostGainDiscounted:
		return "in-boost-gain-discounted"
	default:
		return fmt.Sprintf("DegreeKind(%d)", int(k))
	}
}

// weightedDegree computes the current weighted degree of u under kind,
// given the chosen-so-far mask (for the discounted variants).
func weightedDegree(g *graph.Graph, u int32, kind DegreeKind, chosen []bool) float64 {
	var w float64
	switch kind {
	case OutSum:
		for _, p := range g.OutP(u) {
			w += p
		}
	case OutSumDiscounted:
		to := g.OutTo(u)
		p := g.OutP(u)
		for i, v := range to {
			if !chosen[v] {
				w += p[i]
			}
		}
	case InBoostGain:
		p := g.InP(u)
		pb := g.InPBoost(u)
		for i := range p {
			w += pb[i] - p[i]
		}
	case InBoostGainDiscounted:
		from := g.InFrom(u)
		p := g.InP(u)
		pb := g.InPBoost(u)
		for i, v := range from {
			if !chosen[v] {
				w += pb[i] - p[i]
			}
		}
	}
	return w
}

// HighDegreeGlobal returns one candidate boost set per DegreeKind:
// starting from an empty set, it repeatedly adds the non-seed node with
// the highest weighted degree. The experiment evaluates all four and
// reports the best, as the paper does.
func HighDegreeGlobal(g *graph.Graph, seeds []int32, k int) [][]int32 {
	eligible := eligibleMask(g, seeds)
	out := make([][]int32, 0, numDegreeKinds)
	for kind := DegreeKind(0); kind < numDegreeKinds; kind++ {
		out = append(out, selectByDegree(g, eligible, nil, k, kind))
	}
	return out
}

// HighDegreeLocal is HighDegreeGlobal restricted to nodes close to the
// seeds: first the out-neighbors of seeds, then nodes two hops away, and
// so on until k candidates exist (Section VII "HighDegreeLocal").
func HighDegreeLocal(g *graph.Graph, seeds []int32, k int) [][]int32 {
	eligible := eligibleMask(g, seeds)
	// Grow rings outward from the seeds until at least k eligible nodes
	// are in scope (or the reachable set is exhausted).
	inScope := make([]bool, g.N())
	frontier := append([]int32(nil), seeds...)
	visited := make([]bool, g.N())
	for _, s := range seeds {
		visited[s] = true
	}
	count := 0
	for count < k && len(frontier) > 0 {
		var next []int32
		for _, u := range frontier {
			for _, v := range g.OutTo(u) {
				if !visited[v] {
					visited[v] = true
					next = append(next, v)
					if eligible[v] {
						inScope[v] = true
						count++
					}
				}
			}
		}
		frontier = next
	}
	scope := inScope
	if count < k {
		// Not enough nodes near seeds: fall back to all eligible nodes.
		scope = eligible
	} else {
		// Restrict eligibility to the local scope.
		scope = make([]bool, g.N())
		for v := range scope {
			scope[v] = inScope[v] && eligible[v]
		}
	}
	out := make([][]int32, 0, numDegreeKinds)
	for kind := DegreeKind(0); kind < numDegreeKinds; kind++ {
		out = append(out, selectByDegree(g, scope, eligible, k, kind))
	}
	return out
}

// selectByDegree greedily picks k nodes from scope by weighted degree;
// if scope runs out it continues from fallback (may be nil).
func selectByDegree(g *graph.Graph, scope, fallback []bool, k int, kind DegreeKind) []int32 {
	chosen := make([]bool, g.N())
	var picks []int32
	discounted := kind == OutSumDiscounted || kind == InBoostGainDiscounted

	pickFrom := func(mask []bool) {
		if mask == nil {
			return
		}
		// For non-discounted kinds the degree never changes: one sort
		// suffices. For discounted kinds re-evaluate each round.
		if !discounted {
			type nw struct {
				v int32
				w float64
			}
			var all []nw
			for v := int32(0); int(v) < g.N(); v++ {
				if mask[v] && !chosen[v] {
					all = append(all, nw{v, weightedDegree(g, v, kind, chosen)})
				}
			}
			sort.Slice(all, func(i, j int) bool {
				if all[i].w != all[j].w {
					return all[i].w > all[j].w
				}
				return all[i].v < all[j].v
			})
			for _, c := range all {
				if len(picks) >= k {
					return
				}
				picks = append(picks, c.v)
				chosen[c.v] = true
			}
			return
		}
		for len(picks) < k {
			best := int32(-1)
			bestW := -1.0
			for v := int32(0); int(v) < g.N(); v++ {
				if !mask[v] || chosen[v] {
					continue
				}
				w := weightedDegree(g, v, kind, chosen)
				if w > bestW {
					best, bestW = v, w
				}
			}
			if best < 0 {
				return
			}
			picks = append(picks, best)
			chosen[best] = true
		}
	}
	pickFrom(scope)
	if len(picks) < k {
		pickFrom(fallback)
	}
	return picks
}

func eligibleMask(g *graph.Graph, seeds []int32) []bool {
	eligible := make([]bool, g.N())
	for v := range eligible {
		eligible[v] = true
	}
	for _, s := range seeds {
		eligible[s] = false
	}
	return eligible
}

// PageRankOptions configures the PageRank baseline.
type PageRankOptions struct {
	Restart float64 // restart (teleport) probability; the paper uses 0.15
	Tol     float64 // L1 convergence threshold; the paper uses 1e-4
	MaxIter int     // iteration cap
}

func (o PageRankOptions) withDefaults() PageRankOptions {
	if o.Restart <= 0 || o.Restart >= 1 {
		o.Restart = 0.15
	}
	if o.Tol <= 0 {
		o.Tol = 1e-4
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 1000
	}
	return o
}

// PageRank computes the influence-PageRank of the paper: when u has
// influence on v (edge e_uv with probability p_uv), v "votes" for u.
// The walk moves from u to its in-neighbor v with transition probability
// p_vu / ρ(u), where ρ(u) is the total incoming influence probability of
// u. Dangling mass (ρ(u)=0) teleports uniformly.
func PageRank(g *graph.Graph, opt PageRankOptions) []float64 {
	opt = opt.withDefaults()
	n := g.N()
	pr := make([]float64, n)
	next := make([]float64, n)
	for v := range pr {
		pr[v] = 1 / float64(n)
	}
	rho := make([]float64, n)
	for v := int32(0); int(v) < n; v++ {
		for _, p := range g.InP(v) {
			rho[v] += p
		}
	}
	for iter := 0; iter < opt.MaxIter; iter++ {
		base := opt.Restart / float64(n)
		var dangling float64
		for v := range next {
			next[v] = base
		}
		for u := int32(0); int(u) < n; u++ {
			if rho[u] == 0 {
				dangling += pr[u]
				continue
			}
			share := (1 - opt.Restart) * pr[u] / rho[u]
			from := g.InFrom(u)
			p := g.InP(u)
			for i, v := range from {
				next[v] += share * p[i]
			}
		}
		if dangling > 0 {
			spread := (1 - opt.Restart) * dangling / float64(n)
			for v := range next {
				next[v] += spread
			}
		}
		var l1 float64
		for v := range pr {
			d := next[v] - pr[v]
			if d < 0 {
				d = -d
			}
			l1 += d
		}
		pr, next = next, pr
		if l1 < opt.Tol {
			break
		}
	}
	return pr
}

// PageRankBoost returns the top-k non-seed nodes by influence-PageRank.
func PageRankBoost(g *graph.Graph, seeds []int32, k int, opt PageRankOptions) []int32 {
	pr := PageRank(g, opt)
	banned := make([]bool, g.N())
	for _, s := range seeds {
		banned[s] = true
	}
	type nw struct {
		v int32
		w float64
	}
	all := make([]nw, 0, g.N())
	for v := int32(0); int(v) < g.N(); v++ {
		if !banned[v] {
			all = append(all, nw{v, pr[v]})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].w != all[j].w {
			return all[i].w > all[j].w
		}
		return all[i].v < all[j].v
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]int32, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].v
	}
	return out
}

// MoreSeeds selects k extra seeds maximizing marginal influence (the
// IMM framework re-targeted at marginal coverage) and returns them as a
// boost set. The paper uses it to demonstrate that good additional
// seeds are poor boost targets.
func MoreSeeds(g *graph.Graph, seeds []int32, k int, opt rrset.Options) ([]int32, error) {
	res, err := rrset.SelectMarginalSeedsContext(context.Background(), g, seeds, k, opt)
	if err != nil {
		return nil, err
	}
	return res.Seeds, nil
}
