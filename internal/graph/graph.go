// Package graph implements the directed influence graph that every
// algorithm in kboost operates on.
//
// A Graph stores, for each directed edge (u,v), two influence
// probabilities: P (the base probability that a newly activated u
// influences a non-boosted v) and PBoost (the probability used when v is
// boosted), with P <= PBoost as required by the influence boosting model
// of Lin, Chen and Lui (ICDE 2017, Definition 1).
//
// The representation is a compressed sparse row (CSR) layout for both the
// out-adjacency and the in-adjacency, so forward diffusion simulation and
// reverse sketch generation are both cache-friendly and allocation-free.
// Graphs are immutable once built; use Builder to construct them. A
// graph derived from another (a reweight-only ApplyDelta, or
// WithBoostFactor) shares the arrays it does not change.
package graph

import (
	"fmt"
	"math"
)

// Edge is one directed influence edge.
type Edge struct {
	From, To int32
	P        float64 // base influence probability
	PBoost   float64 // influence probability when To is boosted
}

// Graph is an immutable directed graph with dual edge probabilities in
// CSR form. The zero value is an empty graph.
type Graph struct {
	n int

	outStart []int32 // len n+1; out-edges of u are [outStart[u], outStart[u+1])
	outTo    []int32
	outP     []float64
	outPB    []float64

	inStart []int32 // len n+1; in-edges of v are [inStart[v], inStart[v+1])
	inFrom  []int32
	inP     []float64
	inPB    []float64
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of directed edges.
func (g *Graph) M() int { return len(g.outTo) }

// OutDegree returns the number of out-edges of u.
func (g *Graph) OutDegree(u int32) int {
	return int(g.outStart[u+1] - g.outStart[u])
}

// InDegree returns the number of in-edges of v.
func (g *Graph) InDegree(v int32) int {
	return int(g.inStart[v+1] - g.inStart[v])
}

// OutOffset returns the index of u's first out-edge in the global edge
// arrays; out-edge i of u has global index OutOffset(u)+i. Useful for
// maintaining per-edge side tables aligned with the CSR layout.
func (g *Graph) OutOffset(u int32) int32 { return g.outStart[u] }

// InOffset returns the index of v's first in-edge in the global in-edge
// arrays.
func (g *Graph) InOffset(v int32) int32 { return g.inStart[v] }

// OutTo returns the targets of u's out-edges. The slice aliases internal
// storage and must not be modified.
func (g *Graph) OutTo(u int32) []int32 { return g.outTo[g.outStart[u]:g.outStart[u+1]] }

// OutP returns the base probabilities of u's out-edges, aligned with OutTo.
func (g *Graph) OutP(u int32) []float64 { return g.outP[g.outStart[u]:g.outStart[u+1]] }

// OutPBoost returns the boosted probabilities of u's out-edges, aligned
// with OutTo.
func (g *Graph) OutPBoost(u int32) []float64 { return g.outPB[g.outStart[u]:g.outStart[u+1]] }

// InFrom returns the sources of v's in-edges. The slice aliases internal
// storage and must not be modified.
func (g *Graph) InFrom(v int32) []int32 { return g.inFrom[g.inStart[v]:g.inStart[v+1]] }

// InP returns the base probabilities of v's in-edges, aligned with InFrom.
func (g *Graph) InP(v int32) []float64 { return g.inP[g.inStart[v]:g.inStart[v+1]] }

// InPBoost returns the boosted probabilities of v's in-edges, aligned
// with InFrom.
func (g *Graph) InPBoost(v int32) []float64 { return g.inPB[g.inStart[v]:g.inStart[v+1]] }

// Edges returns a copy of all edges in from-major order.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.M())
	for u := int32(0); u < int32(g.n); u++ {
		to := g.OutTo(u)
		p := g.OutP(u)
		pb := g.OutPBoost(u)
		for i := range to {
			edges = append(edges, Edge{From: u, To: to[i], P: p[i], PBoost: pb[i]})
		}
	}
	return edges
}

// FindEdge returns the probabilities of edge (u,v) and whether it exists.
func (g *Graph) FindEdge(u, v int32) (p, pBoost float64, ok bool) {
	to := g.OutTo(u)
	for i, w := range to {
		if w == v {
			return g.OutP(u)[i], g.OutPBoost(u)[i], true
		}
	}
	return 0, 0, false
}

// WithBoostFactor returns a new Graph with identical topology and base
// probabilities, but with every boosted probability set to
// 1-(1-p)^beta. This is the boosting-parameter convention of the paper's
// experiment section (Section VII). beta must be >= 1. The new graph
// shares g's topology and base-probability arrays: graphs are
// immutable, so both may read them.
func (g *Graph) WithBoostFactor(beta float64) (*Graph, error) {
	if beta < 1 {
		return nil, fmt.Errorf("graph: boost factor beta=%v must be >= 1", beta)
	}
	ng := *g
	ng.outPB = make([]float64, len(g.outP))
	for i, p := range g.outP {
		ng.outPB[i] = boostProb(p, beta)
	}
	ng.inPB = make([]float64, len(g.inP))
	for i, p := range g.inP {
		ng.inPB[i] = boostProb(p, beta)
	}
	return &ng, nil
}

// boostProb returns 1-(1-p)^beta clamped to [p, 1].
func boostProb(p, beta float64) float64 {
	pb := 1 - math.Pow(1-p, beta)
	if pb < p {
		pb = p
	}
	if pb > 1 {
		pb = 1
	}
	return pb
}

// Validate checks the structural invariants of the graph: probability
// ranges, P <= PBoost, consistent CSR offsets and mirrored in/out edges.
// Graphs produced by Builder always validate; this is primarily a guard
// for graphs deserialized from external files.
func (g *Graph) Validate() error {
	if g.n < 0 {
		return fmt.Errorf("graph: negative node count %d", g.n)
	}
	if len(g.outStart) != g.n+1 || len(g.inStart) != g.n+1 {
		return fmt.Errorf("graph: CSR offset arrays have wrong length")
	}
	if g.outStart[g.n] != int32(len(g.outTo)) || g.inStart[g.n] != int32(len(g.inFrom)) {
		return fmt.Errorf("graph: CSR offsets do not cover edge arrays")
	}
	if len(g.outTo) != len(g.inFrom) {
		return fmt.Errorf("graph: out edge count %d != in edge count %d", len(g.outTo), len(g.inFrom))
	}
	for u := 0; u < g.n; u++ {
		if g.outStart[u] > g.outStart[u+1] || g.inStart[u] > g.inStart[u+1] {
			return fmt.Errorf("graph: decreasing CSR offsets at node %d", u)
		}
	}
	for i, v := range g.outTo {
		if v < 0 || int(v) >= g.n {
			return fmt.Errorf("graph: out edge %d targets invalid node %d", i, v)
		}
		if err := checkProbPair(g.outP[i], g.outPB[i]); err != nil {
			return fmt.Errorf("graph: out edge %d: %w", i, err)
		}
	}
	for i, u := range g.inFrom {
		if u < 0 || int(u) >= g.n {
			return fmt.Errorf("graph: in edge %d from invalid node %d", i, u)
		}
		if err := checkProbPair(g.inP[i], g.inPB[i]); err != nil {
			return fmt.Errorf("graph: in edge %d: %w", i, err)
		}
	}
	return nil
}

func checkProbPair(p, pb float64) error {
	if math.IsNaN(p) || math.IsNaN(pb) {
		return fmt.Errorf("NaN probability")
	}
	if p < 0 || p > 1 {
		return fmt.Errorf("base probability %v out of [0,1]", p)
	}
	if pb < 0 || pb > 1 {
		return fmt.Errorf("boosted probability %v out of [0,1]", pb)
	}
	if pb < p {
		return fmt.Errorf("boosted probability %v < base probability %v", pb, p)
	}
	return nil
}
