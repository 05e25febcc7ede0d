package kthresh

// This file is the k-threshold cascade the profile-pool kernel samples
// with. A profile is an edge-percolation world; its cached base world
// is the active set under B = ∅ and the frontier — every inactive node
// with at least one usable in-edge from a base-active node — with two
// exposure counts per frontier node: live (edges usable unboosted) and
// boost-only (edges usable only if the node is boosted). Boosting only
// adds usable edges, counts only grow, and activation is monotone in
// the counts, so a boosted world's active set always contains the base
// world's and warm queries evaluate boost sets from the cached counts.

import (
	"math"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/model/profile"
)

// exposure is a frontier node's cached exposure counts from base-active
// in-neighbors: the k-threshold analogue of lt's accumulated frontier
// in-weight.
type exposure struct {
	live  int32 // edges usable unboosted
	boost int32 // edges usable only when the node is boosted
}

// Pool is a growable collection of boosted k-threshold percolation
// profiles for a fixed (graph, seed set): the kernel's profile.Pool
// over k-threshold dynamics (see profile.Pool for the concurrency
// contract).
type Pool struct {
	*profile.Pool[exposure, *evalScratch]
}

// Norms returns nil: k-threshold ranks boost candidates on raw edge
// probabilities (activation counts exposures; there is no per-node
// weight normalization).
func (p *Pool) Norms() []float64 { return nil }

// NewPool creates an empty pool for (g, seeds). seed determines every
// profile the pool will ever contain; workers <= 0 means GOMAXPROCS.
// Pool contents do not depend on workers.
func (m *Model) NewPool(g *graph.Graph, seeds []int32, seed uint64, workers int) (*Pool, error) {
	k, err := profile.New("kthresh", g, seeds, seed, workers, m.cascade(g))
	if err != nil {
		return nil, err
	}
	return &Pool{k}, nil
}

// EstimateSamples is the engine's tier-1 estimator for mode "kthresh":
// sims pool-free replicates, replicate i being the percolation world
// seeded by rng.StreamSeed(seed, i) (see profile.EstimateSamples).
func (m *Model) EstimateSamples(g *graph.Graph, seeds, boost []int32, sims int, seed uint64, workers int) (spread, delta []float64, err error) {
	return profile.EstimateSamples("kthresh", g, seeds, boost, sims, seed, workers, m.cascade(g))
}

// cascade returns the constructor of m's dynamics on g.
func (m *Model) cascade(g *graph.Graph) func([]int32) profile.Cascade[exposure, *evalScratch] {
	return func(seeds []int32) profile.Cascade[exposure, *evalScratch] {
		return &cascade{thresh: m.thresh, g: g, seeds: seeds}
	}
}

// cascade is k-threshold contagion on one graph and seed set.
type cascade struct {
	thresh int32
	g      *graph.Graph
	seeds  []int32 // sorted, deduplicated
}

// evalScratch is the reusable per-worker state for profile evaluation:
// dense arrays addressed by node id, cleaned after each profile via the
// load and modification logs so reuse is O(touched), not O(n).
type evalScratch struct {
	active []bool
	cnt    []int32 // usable exposures from active nodes, under evaluation
	bcnt   []int32 // boost-only exposures not yet counted in cnt
	queue  []int32

	loadedAct []int32 // nodes whose active flag was set by Delta's load
	actNode   []int32 // every activation since load, in order
	cntNode   []int32 // unique nodes whose cnt/bcnt were written
	cntLog    []int32 // every cnt increment's node, in order
	bcntLog   []int32 // every bcnt increment's node, in order
	front     []int32 // base-world capture: the frontier being collected

	tstamp []int32 // cnt-touch dedup stamps
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
	n := c.g.N()
	return &evalScratch{
		active: make([]bool, n),
		cnt:    make([]int32, n),
		bcnt:   make([]int32, n),
		tstamp: make([]int32, n),
	}
}

// markTouched logs the first cnt/bcnt write to t in this evaluation so
// reset can clear it.
func (s *evalScratch) markTouched(t int32) {
	if s.tstamp[t] != s.tepoch {
		s.tstamp[t] = s.tepoch
		s.cntNode = append(s.cntNode, t)
	}
}

// reset clears every node the scratch touched since the last load.
func (s *evalScratch) reset() {
	for _, v := range s.loadedAct {
		s.active[v] = false
	}
	for _, v := range s.actNode {
		s.active[v] = false
	}
	for _, v := range s.cntNode {
		s.cnt[v] = 0
		s.bcnt[v] = 0
	}
	s.loadedAct = s.loadedAct[:0]
	s.actNode = s.actNode[:0]
	s.cntNode = s.cntNode[:0]
	s.cntLog = s.cntLog[:0]
	s.bcntLog = s.bcntLog[:0]
	s.queue = s.queue[:0]
}

// rollback undoes the count increments and activations past the given
// log marks.
func (s *evalScratch) rollback(cntMark, bcntMark, actMark int) {
	for _, v := range s.cntLog[cntMark:] {
		s.cnt[v]--
	}
	for _, v := range s.bcntLog[bcntMark:] {
		s.bcnt[v]--
	}
	for _, v := range s.actNode[actMark:] {
		s.active[v] = false
	}
	s.cntLog = s.cntLog[:cntMark]
	s.bcntLog = s.bcntLog[:bcntMark]
	s.actNode = s.actNode[:actMark]
}

// runCascade drains s.queue: each newly active node u pushes its
// out-edges' exposures into inactive targets. An edge counts when its
// uniform falls below the base probability, or — for targets in the
// boost set — below the boosted probability. A target activates when
// its usable exposure count reaches the model threshold. With collect
// set (the base world and the greedy's evaluations), a boost-only
// exposure of an unboosted target goes to bcnt — the frontier's cached
// boost count, and what boosting that target would add — and every
// increment is logged for rollback. Returns the number of activations
// (excluding nodes queued by the caller).
func (c *cascade) runCascade(ps uint64, mask []bool, collect bool, s *evalScratch) int {
	g := c.g
	activated := 0
	for qi := 0; qi < len(s.queue); qi++ {
		u := s.queue[qi]
		to := g.OutTo(u)
		pp := g.OutP(u)
		pb := g.OutPBoost(u)
		for i, t := range to {
			if s.active[t] {
				continue
			}
			uu := edgeU(ps, u, t)
			if uu >= pp[i] {
				// Not live; usable only as a boost-only edge.
				if mask == nil || !mask[t] {
					if collect && uu < pb[i] {
						s.markTouched(t)
						s.bcnt[t]++
						s.bcntLog = append(s.bcntLog, t)
					}
					continue
				}
				if uu >= pb[i] {
					continue
				}
			}
			s.markTouched(t)
			s.cnt[t]++
			if collect {
				s.cntLog = append(s.cntLog, t)
			}
			if s.cnt[t] >= c.thresh {
				s.active[t] = true
				s.actNode = append(s.actNode, t)
				s.queue = append(s.queue, t)
				activated++
			}
		}
	}
	s.queue = s.queue[:0]
	return activated
}

// simulate runs one full fixed point from an empty scratch: seeds
// activate unconditionally, then the cascade runs under the boost mask.
// It returns the active count and leaves the final state in s (caller
// extracts what it needs, then resets).
func (c *cascade) simulate(ps uint64, mask []bool, collect bool, s *evalScratch) int {
	s.bumpTouchEpoch()
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

// Base captures one profile's base world: the sorted active set and the
// sorted frontier with its live and boost-only exposure counts.
func (c *cascade) Base(ps uint64, st *profile.Store[exposure], s *evalScratch) {
	c.simulate(ps, nil, true, s)
	s.front = s.front[:0]
	for _, v := range s.cntNode {
		if !s.active[v] {
			s.front = append(s.front, v)
		}
	}
	st.Add(s.actNode, s.front, func(v int32) exposure { return exposure{s.cnt[v], s.bcnt[v]} })
	s.reset()
}

// Delta computes the marginal activations of boosting bset on one
// profile, starting from its cached base fixed point. It loads the base
// active set and every frontier node's exposure counts, then phase 1
// folds each inactive boosted node's boost-only exposures into its
// count (the contributions of base-active in-neighbors, which the
// cascade will not replay) and activates those at threshold; phase 2
// cascades from the activated nodes. With gc set it then reports each
// candidate's gain over that state by a tentative cascade, rolled back
// afterwards; the touch set is every boost-only exposure's target.
func (c *cascade) Delta(pr profile.Profile[exposure], bset []int32, mask []bool, gc *profile.Gains, s *evalScratch) int {
	s.bumpTouchEpoch()
	for _, u := range pr.Active {
		s.active[u] = true
	}
	s.loadedAct = append(s.loadedAct, pr.Active...)
	for j, v := range pr.Front {
		s.markTouched(v)
		s.cnt[v], s.bcnt[v] = pr.Pay[j].live, pr.Pay[j].boost
	}
	delta := 0
	for _, b := range bset {
		s.cnt[b], s.bcnt[b] = s.cnt[b]+s.bcnt[b], 0
		if c.activate(b, 0, s) {
			delta++
		}
	}
	delta += c.runCascade(pr.Seed, mask, gc != nil, s)
	if gc != nil {
		for _, t := range s.bcntLog {
			gc.Touch(t)
		}
		for _, v := range gc.Candidates() {
			cntMark, bcntMark, actMark := len(s.cntLog), len(s.bcntLog), len(s.actNode)
			if !c.activate(v, s.bcnt[v], s) {
				continue
			}
			gc.Add(v, 1+c.runCascade(pr.Seed, mask, true, s))
			for _, t := range s.bcntLog[bcntMark:] {
				gc.Touch(t)
			}
			s.rollback(cntMark, bcntMark, actMark)
		}
	}
	s.reset()
	return delta
}

// Gate is unused: Quiet's test needs only the payload.
func (c *cascade) Gate(int32) float64 { return 0 }

// Quiet reports that frontier node v's exposures, all usable once it is
// boosted, stay below the threshold, so Delta's phase 1 cannot activate
// it. The test is exact.
func (c *cascade) Quiet(_ uint64, _ int32, e exposure, _ float64) bool {
	return e.live+e.boost < c.thresh
}

// activate activates inactive node v, queueing it for the cascade, if
// its count plus boost more exposures reaches the threshold.
func (c *cascade) activate(v, boost int32, s *evalScratch) bool {
	if s.active[v] || s.cnt[v]+boost < c.thresh {
		return false
	}
	s.active[v] = true
	s.actNode = append(s.actNode, v)
	s.queue = append(s.queue, v)
	return true
}
