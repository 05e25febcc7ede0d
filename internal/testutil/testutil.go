// Package testutil provides shared fixtures for kboost tests: the
// paper's worked examples and small random graphs suitable for exact
// enumeration.
package testutil

import (
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rng"
)

// Fig1 returns the paper's Figure 1 example: s -> v0 -> v1 with
// p(s,v0)=0.2, p'(s,v0)=0.4, p(v0,v1)=0.1, p'(v0,v1)=0.2, S={s}.
// Node ids: s=0, v0=1, v1=2.
//
// Ground truth (from the paper):
//
//	σ_S(∅)        = 1.22
//	σ_S({v0})     = 1.44   Δ = 0.22
//	σ_S({v1})     = 1.24   Δ = 0.02
//	σ_S({v0,v1})  = 1.48   Δ = 0.26
func Fig1() (*graph.Graph, []int32) {
	b := graph.NewBuilder(3)
	b.MustAddEdge(0, 1, 0.2, 0.4)
	b.MustAddEdge(1, 2, 0.1, 0.2)
	return b.MustBuild(), []int32{0}
}

// Fig4 returns the paper's Figure 4 bidirected tree: v0 adjacent to
// v1, v2, v3, every directed edge with p=0.1 and p'=0.19, S={v1,v3}.
// Node ids match the paper's (v0=0 .. v3=3).
func Fig4() (*graph.Graph, []int32) {
	b := graph.NewBuilder(4)
	for _, leaf := range []int32{1, 2, 3} {
		b.MustAddEdge(0, leaf, 0.1, 0.19)
		b.MustAddEdge(leaf, 0, 0.1, 0.19)
	}
	return b.MustBuild(), []int32{1, 3}
}

// RandomGraph generates a small random directed graph with n nodes and
// about m edges, probabilities uniform in (0, maxP] and boosted
// probabilities 1-(1-p)^2. Suitable for exact enumeration when m <=
// exact.MaxEdges.
func RandomGraph(r *rng.Source, n, m int, maxP float64) *graph.Graph {
	return randomGraph(r, n, m, maxP, false)
}

// RandomSeedSet picks count distinct seeds from a graph with n nodes.
func RandomSeedSet(r *rng.Source, n, count int) []int32 {
	if count > n {
		count = n
	}
	picks := r.Sample(n, count)
	out := make([]int32, count)
	for i, v := range picks {
		out[i] = int32(v)
	}
	return out
}

// NonSeeds returns all node ids not in seeds.
func NonSeeds(n int, seeds []int32) []int32 {
	mask := make([]bool, n)
	for _, s := range seeds {
		mask[s] = true
	}
	var out []int32
	for v := int32(0); int(v) < n; v++ {
		if !mask[v] {
			out = append(out, v)
		}
	}
	return out
}

// EdgeCaseGraph is RandomGraph with impossible and certain edges mixed
// in. Of every six edges, one has p = p' = 0, one p = 0 < p', one
// p = p' = 1 and one p < p' = 1; the other two are drawn as in
// RandomGraph. Samplers skip the coin for a probability of exactly 0 or
// 1, so a golden pin over this graph also pins which edges draw.
func EdgeCaseGraph(r *rng.Source, n, m int, maxP float64) *graph.Graph {
	return randomGraph(r, n, m, maxP, true)
}

func randomGraph(r *rng.Source, n, m int, maxP float64, edgeCases bool) *graph.Graph {
	b := graph.NewBuilder(n)
	seen := make(map[[2]int32]bool)
	attempts := 0
	for b.NumEdges() < m && attempts < 50*m {
		attempts++
		u := int32(r.Intn(n))
		v := int32(r.Intn(n))
		if u == v || seen[[2]int32{u, v}] {
			continue
		}
		seen[[2]int32{u, v}] = true
		p := r.Float64() * maxP
		if p == 0 {
			p = maxP / 2
		}
		pb := 1 - (1-p)*(1-p)
		if edgeCases {
			switch b.NumEdges() % 6 {
			case 0:
				p, pb = 0, 0
			case 1:
				p = 0
			case 2:
				p, pb = 1, 1
			case 3:
				pb = 1
			}
		}
		b.MustAddEdge(u, v, p, pb)
	}
	return b.MustBuild()
}
