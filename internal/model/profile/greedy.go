package profile

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/maxcover"
	"github.com/kboost/kboost/internal/rng"
)

// CandidateCap resolves a greedy candidate-pool cap: candCap < k falls
// back to 4k, the candidate budget every pooled greedy in this repo
// uses.
func CandidateCap(k, candCap int) int {
	if candCap < k {
		return 4 * k
	}
	return candCap
}

// Candidates returns the default greedy candidate pool: non-seed nodes
// ordered by raw incoming boost uplift Σ (p'−p) descending (ties toward
// the smaller id), capped at CandidateCap(k, candCap). The uplift is
// each model's natural first-order proxy for what boosting a node adds.
func Candidates(g *graph.Graph, seedMask []bool, k, candCap int) []int32 {
	candCap = CandidateCap(k, candCap)
	type nw struct {
		v int32
		w float64
	}
	pool := make([]nw, 0, g.N())
	for v := int32(0); int(v) < g.N(); v++ {
		if seedMask[v] {
			continue
		}
		var wsum float64
		p := g.InP(v)
		pb := g.InPBoost(v)
		for i := range p {
			wsum += pb[i] - p[i]
		}
		pool = append(pool, nw{v, wsum})
	}
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].w != pool[j].w {
			return pool[i].w > pool[j].w
		}
		return pool[i].v < pool[j].v
	})
	if len(pool) > candCap {
		pool = pool[:candCap]
	}
	out := make([]int32, len(pool))
	for i, c := range pool {
		out[i] = c.v
	}
	return out
}

// CheckSelect validates a selection request against the pool.
func (p *Pool[W, S]) CheckSelect(k int) error {
	if k < 1 {
		return fmt.Errorf("%s: k=%d must be >= 1", p.name, k)
	}
	if len(p.profileSeed) == 0 {
		return fmt.Errorf("%s: selection on an empty pool (call Extend first)", p.name)
	}
	return nil
}

// Eligible returns the listed candidates that may be boosted: in-range
// non-seed nodes, in list order.
func (p *Pool[W, S]) Eligible(cands []int32) []int32 {
	ok := make([]int32, 0, len(cands))
	for _, v := range cands {
		if v >= 0 && int(v) < p.g.N() && !p.seedMask[v] {
			ok = append(ok, v)
		}
	}
	return ok
}

// SelectParallelMin is the minimum number of profiles in a greedy
// evaluation pass before it fans out to the pool's workers; a variable
// so tests can force the parallel path on small pools.
var SelectParallelMin = 64

// GreedyBoostContext greedily selects up to k boost nodes maximizing
// the pooled boost estimate over the default candidate pool (see
// Candidates; candCap < k picks the 4k default). It returns the chosen
// nodes in pick order and the pooled Δ̂ of the chosen set, stopping
// early when no candidate adds activations in any profile. The picks
// and Δ̂ are exactly those of a full re-simulation greedy (ties toward
// the smaller id), bit-identical for every worker count. ctx is polled
// once per evaluation pass.
func (p *Pool[W, S]) GreedyBoostContext(ctx context.Context, k, candCap int) ([]int32, float64, error) {
	if err := p.CheckSelect(k); err != nil {
		return nil, 0, err
	}
	return p.greedyBoost(ctx, k, Candidates(p.g, p.seedMask, k, candCap))
}

// GreedyBoostAmongContext is GreedyBoostContext over an explicit
// candidate list instead of the uplift-ranked default pool: only listed
// non-seed nodes may be picked. Callers (the engine's tier-0
// pre-filter) supply a shortlist from a cheap closed-form ranking;
// out-of-range ids and seeds are ignored.
func (p *Pool[W, S]) GreedyBoostAmongContext(ctx context.Context, k int, cands []int32) ([]int32, float64, error) {
	if err := p.CheckSelect(k); err != nil {
		return nil, 0, err
	}
	return p.greedyBoost(ctx, k, p.Eligible(cands))
}

// gainPair is one candidate's positive marginal gain on one profile.
type gainPair struct{ v, g int32 }

// Gains is what the greedy asks of Cascade.Delta besides the boost
// set's activations: on the profile being evaluated, every open
// candidate's positive marginal gain over the boost set, and the touch
// set. Boosting a node changes only the edges into it, so a profile's
// answers can move when the greedy picks x only if x is in the base
// frontier or the profile's cascades read an edge into x whose outcome
// depends on x's boost status; the touch set is those nodes outside the
// base frontier. One Gains serves one worker; its buffers are flat and
// span every profile of an evaluation pass.
type Gains struct {
	open  []bool  // candidates not yet chosen, shared by all workers
	stamp []int32 // per node: the epoch of the last profile that saw it
	epoch int32   // kboost:epoch
	front []int32 // the current profile's base frontier
	t0    int     // start of the current profile's touch entries
	pairs []gainPair
	touch []int32
	cands []int32
}

// begin starts a profile whose base frontier is front: frontier nodes
// are already known to the greedy, so Touch skips them.
// kboost:epoch-helper
func (gc *Gains) begin(front []int32) {
	if gc.epoch == math.MaxInt32 {
		clear(gc.stamp)
		gc.epoch = 0
	}
	gc.epoch++
	gc.front, gc.t0 = front, len(gc.touch)
	for _, v := range front {
		gc.stamp[v] = gc.epoch
	}
}

// Touch records that a cascade on the current profile read an edge into
// t whose outcome depends on t's boost status.
func (gc *Gains) Touch(t int32) {
	if gc.stamp[t] != gc.epoch {
		gc.stamp[t] = gc.epoch
		gc.touch = append(gc.touch, t)
	}
}

// Candidates returns the open candidates among the current profile's
// base frontier and the nodes touched so far on it. Called right after
// the boost set's cascade, these are all the nodes boosting could still
// activate. The slice is reused by the next call.
func (gc *Gains) Candidates() []int32 {
	gc.cands = gc.cands[:0]
	for _, list := range [2][]int32{gc.front, gc.touch[gc.t0:]} {
		for _, v := range list {
			if gc.open[v] {
				gc.cands = append(gc.cands, v)
			}
		}
	}
	return gc.cands
}

// Add records candidate v's positive marginal gain g on the current
// profile.
func (gc *Gains) Add(v int32, g int) {
	gc.pairs = append(gc.pairs, gainPair{v, int32(g)})
}

// evalProfile runs Delta on profile pi under bset with gc collecting.
func (p *Pool[W, S]) evalProfile(pi int, bset []int32, mask []bool, gc *Gains, s S) int {
	pr := p.Profile(pi)
	gc.begin(pr.Front)
	return p.c.Delta(pr, bset, mask, gc, s)
}

// ProfileGains evaluates profile pi under bset (mask marks its
// members) the way the greedy does and returns bset's activations
// there, each open candidate's positive marginal gain indexed by node,
// and the touch set. It serves the contract oracle in profiletest.
func (p *Pool[W, S]) ProfileGains(pi int, bset []int32, mask, open []bool) (delta int, gains []int, touch []int32) {
	gc := &Gains{open: open, stamp: make([]int32, len(open))}
	s := p.Scratch()
	defer p.PutScratch(s)
	delta = p.evalProfile(pi, bset, mask, gc, s)
	gains = make([]int, len(open))
	for _, e := range gc.pairs {
		gains[e.v] += int(e.g)
	}
	return delta, gains, gc.touch
}

// greedy is one lazy-greedy selection's state. The boost objective is
// not submodular, so the greedy keeps an authoritative gain per
// candidate — the sum of its per-profile gains under the current boost
// set — and after each pick re-evaluates every profile the pick can
// change: those with the pick in their base frontier or touch set
// (see Gains). Every other profile replays bit-identically under the
// grown boost set. Gains are int32, as maxcover.Heap holds them, so a
// candidate's pooled gain must stay below 2^31 activations; R·n < 2^31
// guarantees it.
type greedy[W, S any] struct {
	p      *Pool[W, S]
	bset   []int32 // picks so far
	mask   []bool  // bset's members
	open   []bool  // candidates not yet chosen
	gain   []int32 // authoritative Σ_profiles gain per candidate
	pushed []int32 // gain of the candidate's latest heap entry
	h      maxcover.Heap

	// Each profile's pairs from its latest evaluation, for retraction:
	// pairs[pairOff[pi]:][:pairLen[pi]].
	pairs            []gainPair
	pairOff, pairLen []int32

	// Touch postings as linked lists in flat arrays: node t's profiles
	// are tprof[i] for i = thead[t], tnext[i], ... until -1. A profile
	// whose touch set later lost t stays listed; that costs one
	// needless re-evaluation, never a wrong answer.
	thead, tnext, tprof []int32

	gcs   []*Gains // one per busy worker, from the pool's free list
	spans []span
	stamp []int32 // per profile: the pass that last listed it
	pass  int32
	aff   []int32
}

// span locates one profile's evaluation output in its worker's Gains.
type span struct{ w, p0, p1, t0, t1 int }

// greedyBoost is the lazy greedy over a resolved candidate list.
func (p *Pool[W, S]) greedyBoost(ctx context.Context, k int, cands []int32) ([]int32, float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	n, R := p.g.N(), len(p.profileSeed)
	q := &greedy[W, S]{
		p:       p,
		mask:    make([]bool, n),
		open:    make([]bool, n),
		gain:    make([]int32, n),
		pushed:  make([]int32, n),
		pairOff: make([]int32, R),
		pairLen: make([]int32, R),
		thead:   make([]int32, n),
		stamp:   make([]int32, R),
		gcs:     make([]*Gains, p.workers),
	}
	for i := range q.thead {
		q.thead[i] = -1
	}
	defer func() {
		for _, gc := range q.gcs {
			if gc != nil {
				gc.open, gc.front = nil, nil // drop this query's views
				p.gains.Put(gc)
			}
		}
	}()
	// Under B = ∅ a candidate can gain only where it is in the base
	// frontier, so the first pass covers just those profiles.
	q.pass++
	for _, v := range cands {
		q.open[v] = true
		q.list(p.FrontierProfiles(v))
	}
	q.eval()

	var delta int64 // Σ_profiles activations of bset, integer-exact
	for len(q.bset) < k && q.h.Len() > 0 {
		top := q.h.PopMax()
		v := top.Item
		if !q.open[v] {
			continue
		}
		if top.Gain != q.gain[v] {
			q.push(v)
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		q.bset = append(q.bset, v)
		q.mask[v], q.open[v] = true, false
		delta += int64(top.Gain)
		q.pass++
		q.list(p.FrontierProfiles(v))
		for i := q.thead[v]; i >= 0; i = q.tnext[i] {
			q.list(q.tprof[i : i+1])
		}
		q.eval()
	}
	return q.bset, float64(delta) / float64(R), nil
}

// list adds the given profiles to the current pass, once each.
func (q *greedy[W, S]) list(pis []int32) {
	for _, pi := range pis {
		if q.stamp[pi] != q.pass {
			q.stamp[pi] = q.pass
			q.aff = append(q.aff, pi)
		}
	}
}

// push gives candidate v a heap entry at its current gain, if positive.
func (q *greedy[W, S]) push(v int32) {
	q.pushed[v] = q.gain[v]
	if q.gain[v] > 0 {
		q.h.PushEntry(maxcover.Entry{Item: v, Gain: q.gain[v]})
	}
}

// eval re-evaluates the listed profiles under the current boost set,
// sharded across the pool's workers, then serially swaps each profile's
// old gains for its new ones and records its touch postings. Each
// profile's result is a pure function of (profile, boost set), so the
// sharding cannot change the outcome. A candidate whose gain rose gets
// a fresh heap entry, which keeps the heap top an upper bound on every
// open candidate's gain.
func (q *greedy[W, S]) eval() {
	p, pis := q.p, q.aff
	slices.Sort(pis)
	workers := p.workers
	if len(pis) < SelectParallelMin {
		workers = 1
	}
	q.spans = slices.Grow(q.spans[:0], len(pis))[:len(pis)]
	ForChunks(len(pis), workers, func(w, lo, hi int) {
		if q.gcs[w] == nil {
			q.gcs[w] = p.gains.Get().(*Gains)
		}
		gc := q.gcs[w]
		gc.open, gc.pairs, gc.touch = q.open, gc.pairs[:0], gc.touch[:0]
		s := p.Scratch()
		defer p.PutScratch(s)
		for j := lo; j < hi; j++ {
			p0 := len(gc.pairs)
			p.evalProfile(int(pis[j]), q.bset, q.mask, gc, s)
			q.spans[j] = span{w, p0, len(gc.pairs), gc.t0, len(gc.touch)}
		}
	})
	mark := len(q.pairs)
	for j, pi := range pis {
		for _, e := range q.pairs[q.pairOff[pi]:][:q.pairLen[pi]] {
			q.gain[e.v] -= e.g
		}
		sp, gc := q.spans[j], q.gcs[q.spans[j].w]
		q.pairOff[pi], q.pairLen[pi] = int32(len(q.pairs)), int32(sp.p1-sp.p0)
		q.pairs = append(q.pairs, gc.pairs[sp.p0:sp.p1]...)
		for _, t := range gc.touch[sp.t0:sp.t1] {
			q.tprof = append(q.tprof, pi)
			q.tnext = append(q.tnext, q.thead[t])
			q.thead[t] = int32(len(q.tprof) - 1)
		}
	}
	for _, e := range q.pairs[mark:] {
		q.gain[e.v] += e.g
	}
	for _, e := range q.pairs[mark:] {
		if q.gain[e.v] > q.pushed[e.v] {
			q.push(e.v)
		}
	}
	q.aff = q.aff[:0]
}

// EstimateSamples is the tier-1 estimator of a pooled model: sims
// pool-free replicates returning the per-simulation boosted spread and
// coupled boost delta (all zeros when boost is empty). Replicate i's
// world is the profile seeded by rng.StreamSeed(seed, i) — a stateless
// hash, so the boosted and base runs of one replicate share the exact
// same world (perfect common-random-numbers coupling: a delta is never
// negative) and the vectors are bit-identical for every worker count.
// name prefixes error messages; mk builds the model's cascade over the
// sorted, deduplicated seed set. The vectors feed stats.Summarize for
// confidence intervals.
func EstimateSamples[W, S any](name string, g *graph.Graph, seeds, boost []int32, sims int, seed uint64, workers int, mk func(seeds []int32) Cascade[W, S]) (spread, delta []float64, err error) {
	for _, v := range append(append([]int32(nil), seeds...), boost...) {
		if v < 0 || int(v) >= g.N() {
			return nil, nil, fmt.Errorf("%s: node %d out of range [0,%d)", name, v, g.N())
		}
	}
	if sims <= 0 {
		return nil, nil, fmt.Errorf("%s: sims=%d must be >= 1", name, sims)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sorted, _ := dedupSeeds(g.N(), seeds)
	c := mk(sorted)
	mask := make([]bool, g.N())
	for _, v := range boost {
		mask[v] = true
	}
	spread = make([]float64, sims)
	delta = make([]float64, sims)
	pair := len(boost) > 0
	ForChunks(sims, workers, func(_, lo, hi int) {
		s := c.NewScratch()
		for i := lo; i < hi; i++ {
			ps := rng.StreamSeed(seed, uint64(i))
			spread[i] = float64(c.Simulate(ps, mask, s))
			if pair {
				delta[i] = spread[i] - float64(c.Simulate(ps, nil, s))
			}
		}
	})
	return spread, delta, nil
}
