package sir

// This file is the SIR cascade the profile-pool kernel samples with. A
// profile is a percolation world defined by hash-derived infectious
// durations d(ps, u) and edge uniforms U(ps, u, v); its cached base
// world is the seeds' forward reachable set over live edges (U < q) and
// the frontier of boost-reachable nodes (inactive nodes with at least
// one boost-only in-edge, q ≤ U < q', from a base-active node). Unlike
// LT there is no frontier payload: SIR activation is a single-edge
// event, so frontier membership alone carries the incremental state.
// Boosting is monotone under the shared uniforms, so a profile can only
// gain infections from a boost — never lose them.

import (
	"math"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/model/profile"
)

// Pool is a growable collection of boosted-SIR percolation profiles
// for a fixed (graph, seed set): the kernel's profile.Pool over SIR
// dynamics (see profile.Pool for the concurrency contract).
type Pool struct {
	*profile.Pool[struct{}, *evalScratch]
}

// Norms returns nil: SIR ranks boost candidates on raw edge
// probabilities (no per-node normalization exists — transmissibility is
// a per-source random transform).
func (p *Pool) Norms() []float64 { return nil }

// NewPool creates an empty pool for (g, seeds). seed determines every
// profile the pool will ever contain; workers <= 0 means GOMAXPROCS.
// Pool contents do not depend on workers.
func (m *Model) NewPool(g *graph.Graph, seeds []int32, seed uint64, workers int) (*Pool, error) {
	k, err := profile.New("sir", g, seeds, seed, workers, m.cascade(g))
	if err != nil {
		return nil, err
	}
	return &Pool{k}, nil
}

// EstimateSamples is the engine's tier-1 estimator for mode "sir": sims
// pool-free replicates, replicate i being the percolation world seeded
// by rng.StreamSeed(seed, i) (see profile.EstimateSamples).
func (m *Model) EstimateSamples(g *graph.Graph, seeds, boost []int32, sims int, seed uint64, workers int) (spread, delta []float64, err error) {
	return profile.EstimateSamples("sir", g, seeds, boost, sims, seed, workers, m.cascade(g))
}

// cascade returns the constructor of m's dynamics on g.
func (m *Model) cascade(g *graph.Graph) func([]int32) profile.Cascade[struct{}, *evalScratch] {
	return func(seeds []int32) profile.Cascade[struct{}, *evalScratch] {
		return &cascade{m: m, g: g, seeds: seeds}
	}
}

// cascade is boosted-SIR percolation on one graph and seed set.
type cascade struct {
	m     *Model
	g     *graph.Graph
	seeds []int32 // sorted, deduplicated
}

// evalScratch is the reusable per-worker state for profile evaluation:
// dense arrays addressed by node id, cleaned after each profile via the
// load and activation logs so reuse is O(touched), not O(n).
type evalScratch struct {
	active []bool
	queue  []int32

	loadedAct []int32 // nodes whose active flag was set by Delta's load
	actNode   []int32 // every activation since load, in order
	touched   []int32 // boost-only push targets (frontier, touch set)

	tstamp []int32 // touch-collection / dedup stamps
	tepoch int32   // kboost:epoch
}

// bumpTouchEpoch advances the touch stamp, clearing the stamp array
// when the int32 epoch wraps so stale stamps can never read as current.
// kboost:epoch-helper
func (s *evalScratch) bumpTouchEpoch() {
	if s.tepoch == math.MaxInt32 {
		clear(s.tstamp)
		s.tepoch = 0
	}
	s.tepoch++
}

func (c *cascade) NewScratch() *evalScratch {
	return &evalScratch{
		active: make([]bool, c.g.N()),
		tstamp: make([]int32, c.g.N()),
	}
}

// reset clears every node the scratch activated since the last reset.
func (s *evalScratch) reset() {
	for _, v := range s.loadedAct {
		s.active[v] = false
	}
	for _, v := range s.actNode {
		s.active[v] = false
	}
	s.loadedAct = s.loadedAct[:0]
	s.actNode = s.actNode[:0]
	s.touched = s.touched[:0]
	s.queue = s.queue[:0]
}

// runCascade drains s.queue: each newly infected node u attempts its
// out-edges under the profile's percolation draws. An edge transmits
// when its uniform falls below the base transmissibility q, or — for
// targets in the boost set — below the boosted transmissibility q'.
// With collect set, the unboosted targets of boost-only edges (q ≤ U <
// q') are logged into s.touched, epoch-deduplicated: the base world's
// frontier candidates, and the greedy's touch set. Returns the number
// of activations (excluding nodes queued by the caller).
func (c *cascade) runCascade(ps uint64, mask []bool, collect bool, s *evalScratch) int {
	g := c.g
	activated := 0
	for qi := 0; qi < len(s.queue); qi++ {
		u := s.queue[qi]
		d := c.m.duration(ps, u)
		to := g.OutTo(u)
		pp := g.OutP(u)
		pb := g.OutPBoost(u)
		for i, t := range to {
			if s.active[t] {
				continue
			}
			uu := edgeU(ps, u, t)
			if uu < transQ(pp[i], d) {
				s.active[t] = true
				s.actNode = append(s.actNode, t)
				s.queue = append(s.queue, t)
				activated++
				continue
			}
			boosted := mask != nil && mask[t]
			if (boosted || collect) && uu < transQ(pb[i], d) {
				if boosted {
					s.active[t] = true
					s.actNode = append(s.actNode, t)
					s.queue = append(s.queue, t)
					activated++
				} else if s.tstamp[t] != s.tepoch {
					s.tstamp[t] = s.tepoch
					s.touched = append(s.touched, t)
				}
			}
		}
	}
	s.queue = s.queue[:0]
	return activated
}

// simulate runs one full percolation reachability from an empty
// scratch: seeds activate unconditionally, then the cascade runs under
// the boost mask. It returns the infected count and leaves the final
// state in s (caller extracts what it needs, then resets).
func (c *cascade) simulate(ps uint64, mask []bool, collect bool, s *evalScratch) int {
	for _, v := range c.seeds {
		s.active[v] = true
		s.actNode = append(s.actNode, v)
		s.queue = append(s.queue, v)
	}
	return len(c.seeds) + c.runCascade(ps, mask, collect, s)
}

func (c *cascade) Simulate(ps uint64, mask []bool, s *evalScratch) int {
	n := c.simulate(ps, mask, false, s)
	s.reset()
	return n
}

// Base captures one profile's base world: the sorted infected set and
// the sorted frontier (the boost-only push targets that stayed
// inactive, filtered in place).
func (c *cascade) Base(ps uint64, st *profile.Store[struct{}], s *evalScratch) {
	s.bumpTouchEpoch()
	c.simulate(ps, nil, true, s)
	front := s.touched[:0]
	for _, v := range s.touched {
		if !s.active[v] {
			front = append(front, v)
		}
	}
	st.Add(s.actNode, front, nil)
	s.reset()
}

// activate infects inactive node b, queueing it for the cascade, if
// boosting it makes some active in-neighbor's edge transmit. (An active
// in-neighbor with a *live* edge into inactive b cannot exist — the
// cascade would have infected b — so the boosted-transmissibility test
// alone is exact here.)
func (c *cascade) activate(ps uint64, b int32, s *evalScratch) bool {
	if s.active[b] {
		return false
	}
	pb := c.g.InPBoost(b)
	for j, u := range c.g.InFrom(b) {
		if s.active[u] && edgeU(ps, u, b) < transQ(pb[j], c.m.duration(ps, u)) {
			s.active[b] = true
			s.actNode = append(s.actNode, b)
			s.queue = append(s.queue, b)
			return true
		}
	}
	return false
}

// Delta computes the marginal infections of boosting bset on one
// profile, starting from its cached base reachability. Phase 1 scans
// each inactive boosted node's in-edges against the base active set
// (the only sources whose out-attempts the cascade will not replay);
// phase 2 cascades from the nodes that activated. With gc set it then
// reports each candidate's gain over that state by a tentative cascade,
// rolled back afterwards; the touch set is every boost-only edge's
// target.
func (c *cascade) Delta(pr profile.Profile[struct{}], bset []int32, mask []bool, gc *profile.Gains, s *evalScratch) int {
	s.bumpTouchEpoch()
	for _, u := range pr.Active {
		s.active[u] = true
	}
	s.loadedAct = append(s.loadedAct, pr.Active...)
	delta := 0
	for _, b := range bset {
		if c.activate(pr.Seed, b, s) {
			delta++
		}
	}
	delta += c.runCascade(pr.Seed, mask, gc != nil, s)
	if gc != nil {
		bsetTouched := len(s.touched)
		for _, t := range s.touched {
			gc.Touch(t)
		}
		for _, v := range gc.Candidates() {
			mark := len(s.actNode)
			if !c.activate(pr.Seed, v, s) {
				continue
			}
			gc.Add(v, 1+c.runCascade(pr.Seed, mask, true, s))
			for _, u := range s.actNode[mark:] {
				s.active[u] = false
			}
			s.actNode = s.actNode[:mark]
		}
		for _, t := range s.touched[bsetTouched:] {
			gc.Touch(t)
		}
	}
	s.reset()
	return delta
}
