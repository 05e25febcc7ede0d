// Package lt implements a boosted Linear Threshold model, the extension
// direction the paper's conclusion singles out ("investigate similar
// problems under other influence diffusion models, for example the
// well-known Linear Threshold model").
//
// Model: node v draws a threshold θ_v ~ U[0,1]; it activates when the
// summed weight of its active in-neighbors reaches θ_v. Edge weights
// derive from the influence probabilities: with W'(v) = Σ_u p'(u,v) and
// norm(v) = max(1, W'(v)),
//
//	w(u,v)  = p(u,v)  / norm(v)   (v not boosted)
//	w'(u,v) = p'(u,v) / norm(v)   (v boosted)
//
// so weights into any node sum to at most 1 and boosting only raises
// them — the LT analogue of the influence boosting model. There is no
// approximation theory here (the boosted-LT objective inherits the
// non-submodularity problems); the package provides simulation and a
// Monte-Carlo greedy heuristic, plus the estimator plumbing needed to
// experiment with the model.
package lt

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"github.com/kboost/kboost/internal/diffusion"
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/model/profile"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/shard"
)

// mcSims counts Monte-Carlo simulations launched through EstimateSpread
// — the regression meter for GreedyBoost's simulation budget (the base
// spread used to be re-estimated inside every candidate evaluation).
var mcSims atomic.Int64

// Model is a boosted-LT instance derived from an influence graph.
type Model struct {
	g    *graph.Graph
	norm []float64 // per node: max(1, Σ_in p')
}

// New derives a boosted-LT model from g.
func New(g *graph.Graph) *Model {
	m := &Model{g: g, norm: make([]float64, g.N())}
	for v := int32(0); int(v) < g.N(); v++ {
		m.norm[v] = normOf(g, v)
	}
	return m
}

// patched derives the model of g2, a graph whose in-edge lists differ
// from m's graph's only at the nodes marked in dirtyIn (see
// graph.DeltaEffect): it re-sums only the dirty nodes' normalizers and
// marks in moved (n entries, all false on entry) each node whose
// normalizer changed. An in-list that is not dirty has the same
// members, order and probabilities, so the result is bit-identical to
// New(g2) at O(n + dirty in-degree) instead of O(n + m). The
// normalizers are immutable once built, so m2 shares m's slice unless
// some normalizer moved: on a sparse graph most reweights leave every
// max(1, Σp′) at 1.
func (m *Model) patched(g2 *graph.Graph, dirtyIn, moved []bool) *Model {
	m2 := &Model{g: g2, norm: m.norm}
	cloned := false
	for v, dirty := range dirtyIn {
		if !dirty {
			continue
		}
		x := normOf(g2, int32(v))
		if math.Float64bits(x) == math.Float64bits(m2.norm[v]) {
			continue
		}
		if !cloned {
			m2.norm, cloned = slices.Clone(m.norm), true
		}
		m2.norm[v] = x
		moved[v] = true
	}
	return m2
}

// normOf returns v's in-weight normalizer max(1, Σ_in p').
func normOf(g *graph.Graph, v int32) float64 {
	var sum float64
	for _, pb := range g.InPBoost(v) {
		sum += pb
	}
	return max(sum, 1)
}

// Norms returns the per-node in-weight normalizers max(1, Σ_in p').
// The slice aliases the model (kboost:aliased-view): treat it as
// read-only. Exported for the engine's tier-0 closed-form estimator,
// which approximates boosted-LT with the norm-divided probabilities.
func (m *Model) Norms() []float64 { return m.norm }

// Weight returns the effective weight of edge (u,v) given v's boost
// status, or 0 if the edge does not exist.
func (m *Model) Weight(u, v int32, boosted bool) float64 {
	p, pb, ok := m.g.FindEdge(u, v)
	if !ok {
		return 0
	}
	if boosted {
		return pb / m.norm[v]
	}
	return p / m.norm[v]
}

// Simulator runs boosted-LT diffusions. Not safe for concurrent use.
type Simulator struct {
	m *Model

	threshold []float64
	weightIn  []float64 // accumulated active in-weight
	active    []bool
	queue     []int32
	touched   []int32
}

// NewSimulator returns a Simulator for m.
func NewSimulator(m *Model) *Simulator {
	n := m.g.N()
	return &Simulator{
		m:         m,
		threshold: make([]float64, n),
		weightIn:  make([]float64, n),
		active:    make([]bool, n),
	}
}

// SpreadOnce runs one boosted-LT diffusion and returns the number of
// active nodes at quiescence. boost may be nil.
func (s *Simulator) SpreadOnce(seeds []int32, boost []bool, r *rng.Source) int {
	g := s.m.g
	// Reset state touched by the previous run.
	for _, v := range s.touched {
		s.active[v] = false
		s.weightIn[v] = 0
		s.threshold[v] = 0
	}
	s.touched = s.touched[:0]
	s.queue = s.queue[:0]

	activate := func(v int32) {
		s.active[v] = true
		s.queue = append(s.queue, v)
	}
	touch := func(v int32) {
		if s.threshold[v] == 0 {
			s.threshold[v] = r.Float64()
			if s.threshold[v] == 0 {
				s.threshold[v] = 1e-18 // avoid re-draw on revisit
			}
			s.touched = append(s.touched, v)
		}
	}
	for _, v := range seeds {
		if !s.active[v] {
			touch(v)
			activate(v)
		}
	}
	count := len(s.queue)
	for qi := 0; qi < len(s.queue); qi++ {
		u := s.queue[qi]
		to := g.OutTo(u)
		p := g.OutP(u)
		pb := g.OutPBoost(u)
		for i, v := range to {
			if s.active[v] {
				continue
			}
			touch(v)
			w := p[i]
			if boost != nil && boost[v] {
				w = pb[i]
			}
			s.weightIn[v] += w / s.m.norm[v]
			if s.weightIn[v] >= s.threshold[v] {
				activate(v)
				count++
			}
		}
	}
	return count
}

// Options configures Monte-Carlo estimation, with IC's fields and
// defaults.
type Options = diffusion.Options

// EstimateSpread estimates the expected boosted-LT spread.
func EstimateSpread(g *graph.Graph, seeds, boost []int32, opt Options) (float64, error) {
	for _, v := range append(append([]int32(nil), seeds...), boost...) {
		if v < 0 || int(v) >= g.N() {
			return 0, fmt.Errorf("lt: node %d out of range [0,%d)", v, g.N())
		}
	}
	opt = opt.WithDefaults()
	m := New(g)
	mask := diffusion.MaskFromSet(g.N(), boost)
	streams := diffusion.Streams(opt)
	sums := make([]float64, len(streams))
	shard.Each(opt.Sims, opt.Workers, func(w, lo, hi int) {
		sim := NewSimulator(m)
		var sum float64
		for i := lo; i < hi; i++ {
			sum += float64(sim.SpreadOnce(seeds, mask, streams[w]))
		}
		sums[w] = sum
	})
	mcSims.Add(int64(opt.Sims))
	var total float64
	for _, s := range sums {
		total += s
	}
	return total / float64(opt.Sims), nil
}

// EstimateBoost estimates the LT boost Δ_S(B) by differencing spreads
// estimated with common random seeds.
func EstimateBoost(g *graph.Graph, seeds, boost []int32, opt Options) (float64, error) {
	withB, err := EstimateSpread(g, seeds, boost, opt)
	if err != nil {
		return 0, err
	}
	withoutB, err := EstimateSpread(g, seeds, nil, opt)
	if err != nil {
		return 0, err
	}
	return withB - withoutB, nil
}

// GreedyBoost is a Monte-Carlo greedy heuristic for boosted-LT: each
// round it evaluates the marginal boost of every candidate (non-seed
// nodes with the largest boost-gain in-weight, capped at candCap) and
// takes the best. It has no approximation guarantee — the paper leaves
// boosted LT as future work — but serves as a reasonable comparator.
// For repeated queries prefer the pooled Pool.GreedyBoost, which reuses
// sampled threshold profiles across rounds, candidates and queries.
func GreedyBoost(g *graph.Graph, seeds []int32, k int, candCap int, opt Options) ([]int32, float64, error) {
	if k < 1 {
		return nil, 0, fmt.Errorf("lt: k=%d must be >= 1", k)
	}
	opt = opt.WithDefaults()
	seedMask := make([]bool, g.N())
	for _, s := range seeds {
		seedMask[s] = true
	}
	pool := profile.Candidates(g, seedMask, k, candCap)

	// The base spread σ̂_S(∅) is a deterministic function of (g, seeds,
	// opt), so estimate it once up front instead of re-running it inside
	// every candidate's EstimateBoost — this halves the simulation count
	// without changing a single returned value.
	base, err := EstimateSpread(g, seeds, nil, opt)
	if err != nil {
		return nil, 0, err
	}

	var chosen []int32
	chosenMask := make(map[int32]bool)
	best := 0.0
	for round := 0; round < k && round < len(pool); round++ {
		bestV := int32(-1)
		bestVal := best - 1
		for _, cand := range pool {
			if chosenMask[cand] {
				continue
			}
			trial := append(append([]int32(nil), chosen...), cand)
			withB, err := EstimateSpread(g, seeds, trial, opt)
			if err != nil {
				return nil, 0, err
			}
			if val := withB - base; val > bestVal {
				bestV, bestVal = cand, val
			}
		}
		if bestV < 0 {
			break
		}
		chosen = append(chosen, bestV)
		chosenMask[bestV] = true
		best = bestVal
	}
	return chosen, best, nil
}
