package lt

// This file is the pooled Monte-Carlo evaluation subsystem for the
// boosted-LT model, built on the profile-pool kernel
// (internal/model/profile). A Pool holds R pre-sampled "threshold
// profiles" — possible worlds of the LT diffusion, each defined by a
// deterministic per-node threshold draw θ(i,v) — together with the
// cached fixed point of every profile under the empty boost set.
// Because LT activation with fixed thresholds is monotone in the edge
// weights, and boosting only raises weights, a boosted world's active
// set always contains the base world's; warm queries therefore evaluate
// boost sets *incrementally* from the cached base fixed point instead
// of re-running the cascade from scratch, and the pool can be grown in
// place and reused across queries exactly like a PRR pool.
//
// Thresholds are a pure hash of (profile seed, node id) rather than a
// lazily consumed RNG stream, so θ(i,v) does not depend on cascade
// order or on the boost set under evaluation — the property that makes
// profile reuse across boost sets well-defined (common random numbers)
// and makes every pool estimate bit-exact regardless of worker count.
//
// A profile's cached frontier is every push target that stayed
// inactive, with its accumulated base in-weight. Every active node
// pushes to every out-neighbor inactive at the time, zero-weight edges
// included, so each inactive node with an active in-neighbor is in the
// frontier; and θ > 0, so a boosted node outside a profile's frontier
// cannot activate there. Estimates therefore walk only the boosted
// nodes' frontier postings, and of those keep only the profiles where
// some boosted node may reach its threshold: a boost scales a frontier
// node's in-weight by at most its largest in-edge p′/p (Gate), so a
// cached weight × that ratio below θ proves the node stays quiet
// (Quiet), and a profile whose boosted nodes are all quiet adds 0.
//
// Selection is the kernel's lazy greedy (profile.Pool.GreedyBoostContext).
// LT's part is the gains half of Delta: from the boosted fixed point,
// each frontier or newly pushed candidate's tentative cascade, rolled
// back after it, with every push target reported as a touch — any
// push's weight depends on whether its target is boosted.

import (
	"context"
	"math"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/model/profile"
)

// Pool is a growable collection of boosted-LT threshold profiles for a
// fixed (graph, seed set). Profiles are independent of the boost budget
// k, so one pool serves every query against its seed set. Mutation
// (Extend, Repair) must be externally serialized against everything
// else; estimation and selection only read the pool and may run
// concurrently with each other.
type Pool struct {
	kernel *profile.Pool[float64, *evalScratch]
}

// NewPool creates an empty pool for (g, seeds). seed determines every
// profile the pool will ever contain; workers <= 0 means GOMAXPROCS.
// Pool contents do not depend on workers.
func NewPool(g *graph.Graph, seeds []int32, seed uint64, workers int) (*Pool, error) {
	k, err := profile.New("lt", g, seeds, seed, workers, newCascade(g))
	if err != nil {
		return nil, err
	}
	return &Pool{kernel: k}, nil
}

// newCascade returns the constructor of the boosted-LT dynamics on g.
func newCascade(g *graph.Graph) func([]int32) profile.Cascade[float64, *evalScratch] {
	return func(seeds []int32) profile.Cascade[float64, *evalScratch] {
		return &cascade{m: New(g), seeds: seeds}
	}
}

// Norms returns the pool's per-node in-weight normalizers (see
// Model.Norms). The slice aliases the pool's model and must not be
// modified. kboost:aliased-view
func (p *Pool) Norms() []float64 { return p.dynamics().m.Norms() }

// dynamics returns the boosted-LT cascade on the pool's current graph.
func (p *Pool) dynamics() *cascade { return p.kernel.Cascade().(*cascade) }

// NumProfiles returns the number of sampled threshold profiles.
func (p *Pool) NumProfiles() int { return p.kernel.NumProfiles() }

// Graph returns the influence graph the pool samples from.
func (p *Pool) Graph() *graph.Graph { return p.kernel.Graph() }

// Seeds returns the pool's (sorted, deduplicated) seed set. The slice
// is owned by the pool (kboost:aliased-view); callers must not modify
// it.
func (p *Pool) Seeds() []int32 { return p.kernel.Seeds() }

// Generation identifies the pool's contents: it increments on every
// Extend call that adds profiles and on every Repair.
func (p *Pool) Generation() uint64 { return p.kernel.Generation() }

// BaseSpread returns the pooled estimate of the unboosted LT spread
// σ̂(∅), cached from the base fixed points.
func (p *Pool) BaseSpread() float64 { return p.kernel.BaseSpread() }

// MemoryEstimate returns the pool's resident bytes: the flat profile
// state (active and frontier CSRs, frontier weights), the inverted
// index with its offsets, the profile seeds and the estimates' idle
// scratch, counted by capacity (see profile.Pool.MemoryEstimate).
func (p *Pool) MemoryEstimate() int64 { return p.kernel.MemoryEstimate() }

// Extend grows the pool to at least target profiles (see
// ExtendContext).
func (p *Pool) Extend(target int) {
	// Without a cancelable ctx or armed faults the context variant
	// cannot fail.
	_ = p.ExtendContext(context.Background(), target)
}

// ExtendContext grows the pool to at least target profiles with
// cooperative cancellation and shard-worker panic containment; on error
// the pool is left exactly as it was (see profile.Pool.ExtendContext).
func (p *Pool) ExtendContext(ctx context.Context, target int) error {
	return p.kernel.ExtendContext(ctx, target)
}

// Estimate returns the pooled estimates of the boosted-LT spread σ̂(B)
// and of the LT boost Δ̂_S(B) = σ̂(B) − σ̂(∅), both from one incremental
// evaluation of boost from the cached base fixed points. It is
// deterministic for a fixed pool generation, bit-exact across worker
// counts, and shares its possible worlds with every other estimate from
// the same pool (common random numbers), so Δ̂ is coupled, exactly zero
// for an empty or ineffective boost set, and bit-identical to the
// estimate GreedyBoost reports for the same boost set.
func (p *Pool) Estimate(boost []int32) (spread, delta float64, err error) {
	return p.kernel.Estimate(boost)
}

// EstimateSpread returns Estimate's σ̂(B).
func (p *Pool) EstimateSpread(boost []int32) (float64, error) { return p.kernel.EstimateSpread(boost) }

// EstimateBoost returns Estimate's Δ̂_S(B).
func (p *Pool) EstimateBoost(boost []int32) (float64, error) { return p.kernel.EstimateBoost(boost) }

// GreedyBoost greedily selects up to k boost nodes maximizing the
// pooled LT boost estimate over the candidate pool (see
// profile.Candidates; candCap < k picks the 4k default). It returns the
// chosen nodes in pick order and the pooled boost estimate Δ̂ of the
// chosen set, stopping early when no candidate adds activations in any
// profile. Like the underlying model it is a heuristic — no
// approximation guarantee exists for boosted LT — but it returns
// exactly what the full-resimulation reference greedy would, at a
// fraction of the simulations (see profile.Pool.GreedyBoostContext).
// Safe to run concurrently with other read-only pool methods (not with
// Extend).
func (p *Pool) GreedyBoost(k, candCap int) ([]int32, float64, error) {
	return p.GreedyBoostContext(context.Background(), k, candCap)
}

// GreedyBoostContext is GreedyBoost with cooperative cancellation: ctx
// is polled once per profile evaluation pass.
func (p *Pool) GreedyBoostContext(ctx context.Context, k, candCap int) ([]int32, float64, error) {
	return p.kernel.GreedyBoostContext(ctx, k, candCap)
}

// GreedyBoostAmong is GreedyBoost over an explicit candidate list
// instead of the in-weight-ranked default pool: only listed non-seed
// nodes may be picked. Callers (the engine's tier-0 pre-filter) supply
// a shortlist from a cheap closed-form ranking; out-of-range ids and
// seeds are ignored.
func (p *Pool) GreedyBoostAmong(k int, cands []int32) ([]int32, float64, error) {
	return p.GreedyBoostAmongContext(context.Background(), k, cands)
}

// GreedyBoostAmongContext is GreedyBoostAmong with cooperative
// cancellation (see GreedyBoostContext).
func (p *Pool) GreedyBoostAmongContext(ctx context.Context, k int, cands []int32) ([]int32, float64, error) {
	return p.kernel.GreedyBoostAmongContext(ctx, k, cands)
}

// cascade is boosted-LT diffusion on one graph and seed set.
type cascade struct {
	m     *Model
	seeds []int32 // sorted, deduplicated
}

// theta returns θ(i,v) ∈ (0,1): the threshold of node v in the profile
// seeded by ps, as a splitmix64-style hash so the draw is independent
// of evaluation order. A zero threshold would auto-activate any touched
// node, so the (measure-zero) 0 output is clamped away.
func theta(ps uint64, v int32) float64 {
	x := ps ^ (uint64(uint32(v))+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	t := float64(x>>11) * (1.0 / (1 << 53))
	if t == 0 {
		t = 1e-18
	}
	return t
}

// evalScratch is the reusable per-worker state for profile evaluation:
// dense arrays addressed by node id, cleaned after each profile via the
// load and modification logs so reuse is O(touched), not O(n).
type evalScratch struct {
	wIn    []float64
	active []bool
	queue  []int32

	loadedAct []int32 // nodes whose active flag was set by loadState
	loadedW   []int32 // nodes whose wIn was set by loadState

	pushNode []int32   // every push target, in order
	pushPrev []float64 // wIn value before that push
	actNode  []int32   // every activation, in order

	front []int32   // base-world capture: the frontier being collected
	pend  []pending // Delta's phase-1 boosted in-weights

	tstamp []int32 // touch-collection / dedup stamps
	tepoch int32   // kboost:epoch
}

// pending is a boosted node's recomputed in-weight, held between
// Delta's two phases.
type pending struct {
	v int32
	w float64
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
	n := c.m.g.N()
	return &evalScratch{
		wIn:    make([]float64, n),
		active: make([]bool, n),
		tstamp: make([]int32, n),
	}
}

// reset clears every node the scratch touched since the last reset.
func (s *evalScratch) reset() {
	for _, v := range s.loadedAct {
		s.active[v] = false
	}
	for _, v := range s.loadedW {
		s.wIn[v] = 0
	}
	for _, v := range s.pushNode {
		s.wIn[v] = 0
	}
	for _, v := range s.actNode {
		s.active[v] = false
	}
	s.loadedAct = s.loadedAct[:0]
	s.loadedW = s.loadedW[:0]
	s.pushNode = s.pushNode[:0]
	s.pushPrev = s.pushPrev[:0]
	s.actNode = s.actNode[:0]
	s.queue = s.queue[:0]
}

// loadState installs a profile state (active set + frontier weights)
// into the scratch arrays.
func (s *evalScratch) loadState(active, front []int32, frontW []float64) {
	for _, u := range active {
		s.active[u] = true
	}
	s.loadedAct = append(s.loadedAct, active...)
	for j, v := range front {
		s.wIn[v] = frontW[j]
	}
	s.loadedW = append(s.loadedW, front...)
}

// runCascade drains s.queue, pushing each newly active node's out-edge
// weights into inactive neighbors and activating those whose
// accumulated in-weight reaches their threshold. Edges into node t use
// the boosted probability when inB[t] (inB may be nil; a tentatively
// evaluated greedy candidate is already active when the cascade starts,
// so pushes into it never occur and it needs no mask entry). Every push
// and activation is logged so the caller can either roll back
// (tentative evaluation) or reset. Returns the number of activations
// (excluding nodes queued by the caller).
func (c *cascade) runCascade(ps uint64, inB []bool, s *evalScratch) int {
	g, norm := c.m.g, c.m.norm
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
			w := pp[i]
			if inB != nil && inB[t] {
				w = pb[i]
			}
			s.pushNode = append(s.pushNode, t)
			s.pushPrev = append(s.pushPrev, s.wIn[t])
			s.wIn[t] += w / norm[t]
			if s.wIn[t] >= theta(ps, t) {
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

// rollback undoes pushes and activations past the given log marks,
// restoring the state that was loaded (or committed) before them.
func (s *evalScratch) rollback(pushMark, actMark int) {
	for i := len(s.pushNode) - 1; i >= pushMark; i-- {
		s.wIn[s.pushNode[i]] = s.pushPrev[i]
	}
	for _, v := range s.actNode[actMark:] {
		s.active[v] = false
	}
	s.pushNode = s.pushNode[:pushMark]
	s.pushPrev = s.pushPrev[:pushMark]
	s.actNode = s.actNode[:actMark]
}

// simulate runs one full fixed point from an empty scratch: seeds
// activate unconditionally, then the cascade runs under boost mask inB.
// It returns the active count and leaves the final state in s (caller
// extracts what it needs, then resets).
func (c *cascade) simulate(ps uint64, inB []bool, s *evalScratch) int {
	for _, v := range c.seeds {
		s.active[v] = true
		s.actNode = append(s.actNode, v)
		s.queue = append(s.queue, v)
	}
	return len(c.seeds) + c.runCascade(ps, inB, s)
}

func (c *cascade) Simulate(ps uint64, mask []bool, s *evalScratch) int {
	n := c.simulate(ps, mask, s)
	s.reset()
	return n
}

// Base captures one profile's base-world (B = ∅) fixed point: the
// sorted active set and the sorted frontier — unique push targets that
// did not activate — with their accumulated base in-weights.
func (c *cascade) Base(ps uint64, st *profile.Store[float64], s *evalScratch) {
	c.simulate(ps, nil, s)
	s.bumpTouchEpoch()
	s.front = s.front[:0]
	for _, v := range s.pushNode {
		if s.active[v] || s.tstamp[v] == s.tepoch {
			continue
		}
		s.tstamp[v] = s.tepoch
		s.front = append(s.front, v)
	}
	st.Add(s.actNode, s.front, func(v int32) float64 { return s.wIn[v] })
	s.reset()
}

// boostedInWeight recomputes node v's accumulated in-weight from the
// currently active in-neighbors using the boosted probabilities — the
// value v's frontier weight takes when v joins the boost set.
func (c *cascade) boostedInWeight(v int32, s *evalScratch) float64 {
	var w float64
	in := c.m.g.InFrom(v)
	pb := c.m.g.InPBoost(v)
	for j, u := range in {
		if s.active[u] {
			w += pb[j]
		}
	}
	return w / c.m.norm[v]
}

// minGateP is the smallest base probability Gate divides by: a smaller
// one could push p′/p past the range its rounding margin covers.
const minGateP = 0x1p-500

// Gate bounds v's boosted in-weight by a multiple of its cached base
// in-weight: Delta recomputes v's weight over the base-active
// in-neighbors that built the cached one, edge for edge with p′ in
// place of p, so the ratio is at most v's largest in-edge p′/p. The
// relative margin covers the rounding of both sums and of Quiet's
// product. An edge with p′ > 0 but p = 0 (or p below minGateP) makes
// the gate +Inf: boosting can then lift a zero in-weight, and Quiet's
// 0 × +Inf is NaN, which never reads as quiet.
func (c *cascade) Gate(v int32) float64 {
	p, pb := c.m.g.InP(v), c.m.g.InPBoost(v)
	var r float64
	for j, q := range p {
		switch {
		case pb[j] == q:
			r = max(r, 1)
		case q < minGateP:
			return math.Inf(1)
		default:
			r = max(r, pb[j]/q)
		}
	}
	return r * (1 + float64(len(p)+8)*0x1p-50)
}

// Quiet reports that v's boosted in-weight, at most pay × gate, stays
// below its threshold, so Delta's phase 1 cannot activate v.
func (c *cascade) Quiet(ps uint64, v int32, pay, gate float64) bool {
	return pay*gate < theta(ps, v)
}

// Delta computes the marginal activations of boosting bset on one
// profile, starting from its cached base fixed point, and with gc set
// reports every candidate's gain over that boosted state.
func (c *cascade) Delta(pr profile.Profile[float64], bset []int32, mask []bool, gc *profile.Gains, s *evalScratch) int {
	s.loadState(pr.Active, pr.Front, pr.Pay)
	// Phase 1: recompute every inactive boosted node's in-weight with
	// the boosted probabilities, against the *base* active set only —
	// interleaving with activation would double-count cascade pushes.
	s.pend = s.pend[:0]
	for _, b := range bset {
		if !s.active[b] {
			s.pend = append(s.pend, pending{b, c.boostedInWeight(b, s)})
		}
	}
	// Phase 2: install the recomputed weights, activate those at
	// threshold, then run the cascade under the boost mask.
	delta := 0
	for _, e := range s.pend {
		s.pushNode = append(s.pushNode, e.v)
		s.pushPrev = append(s.pushPrev, s.wIn[e.v])
		s.wIn[e.v] = e.w
		if e.w >= theta(pr.Seed, e.v) {
			s.active[e.v] = true
			s.actNode = append(s.actNode, e.v)
			s.queue = append(s.queue, e.v)
			delta++
		}
	}
	delta += c.runCascade(pr.Seed, mask, s)
	if gc != nil {
		c.gains(pr.Seed, mask, gc, s)
	}
	s.reset()
	return delta
}

// gains reports each candidate's marginal activations over the loaded
// boosted state: its in-weight recomputed under the boosted
// probabilities, and if that reaches its threshold, a tentative
// cascade rolled back afterwards. Every push, the boost set's and the
// candidates', is a touch: its weight depends on the target's boost
// status.
func (c *cascade) gains(ps uint64, mask []bool, gc *profile.Gains, s *evalScratch) {
	for _, t := range s.pushNode {
		gc.Touch(t)
	}
	for _, v := range gc.Candidates() {
		if s.active[v] || c.boostedInWeight(v, s) < theta(ps, v) {
			continue
		}
		pushMark, actMark := len(s.pushNode), len(s.actNode)
		s.active[v] = true
		s.actNode = append(s.actNode, v)
		s.queue = append(s.queue, v)
		gc.Add(v, 1+c.runCascade(ps, mask, s))
		for _, t := range s.pushNode[pushMark:] {
			gc.Touch(t)
		}
		s.rollback(pushMark, actMark)
	}
}
