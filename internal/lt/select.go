package lt

// This file is the pooled greedy-selection subsystem: a CELF-style
// lazy-heap greedy over a Pool's threshold profiles, replacing the
// O(candidates × k × R) full-rescan loop of the Monte-Carlo GreedyBoost
// with exact incremental maintenance. The structure deliberately
// mirrors internal/prr's SelectDelta:
//
//   - per-candidate gains are held in an authoritative gain array and a
//     lazy max-heap whose top always dominates the true maximum (the LT
//     boost objective is not submodular, so gains may rise; every rise
//     pushes a fresh entry, which keeps the pop-validate loop exact);
//   - after a pick, only *affected* profiles are re-evaluated. A
//     profile is affected exactly when the picked node is in its
//     current frontier (its stored in-weight switches to the boosted
//     probabilities, and it may activate and cascade) or was touched by
//     one of the profile's candidate-gain cascades (those cascades can
//     now push boosted weight into it). Profiles where neither holds
//     replay bit-identically under the grown boost set, so their gains
//     are provably unchanged — the invariant the equivalence property
//     tests pin against the full-resimulation reference greedy
//     (model/profile/profiletest);
//   - re-evaluation is sharded across the pool's workers.
//
// LT keeps this greedy rather than the kernel's exhaustive one
// (profile.Pool.GreedyBoostContext): both return the reference's picks,
// but re-evaluating only the affected profiles after each pick is
// several times faster on LT pools, whose frontiers are wide.

import (
	"context"
	"sort"

	"github.com/kboost/kboost/internal/maxcover"
	"github.com/kboost/kboost/internal/model/profile"
)

// gainPair is one candidate's nonzero marginal gain on one profile.
type gainPair struct {
	v int32
	g int32
}

// queryState is one profile's per-query mutable state. The slices start
// as views into the pool's base CSRs and are replaced wholesale (never
// written in place) when a pick changes the profile, so the shared pool
// is never mutated by a selection.
type queryState struct {
	active []int32 // sorted
	front  []int32 // sorted
	frontW []float64

	// touch is the sorted union of nodes touched by this profile's most
	// recent candidate-gain evaluation pass; pairs are the gains that
	// pass accumulated into the global gain array (for retraction).
	touch []int32
	pairs []gainPair
}

// profEval is one profile's re-evaluation result, produced in the
// (possibly parallel) evaluation phase and applied serially.
type profEval struct {
	delta     int32 // activations added by the applied pick
	pairs     []gainPair
	touch     []int32
	frontAdds []int32 // nodes that entered the frontier with this pick
}

// ltReEvalParallelMin is the minimum number of profiles per evaluation
// pass before it fans out to the pool's workers; a variable so tests
// can force the parallel path on small pools.
var ltReEvalParallelMin = 64

// GreedyBoost greedily selects up to k boost nodes maximizing the
// pooled LT boost estimate over the candidate pool (see
// profile.Candidates; candCap < k picks the 4k default). It returns the
// chosen nodes in pick order and the pooled boost estimate Δ̂ of the
// chosen set. Selection stops early when no candidate adds activations
// in any profile. Like the underlying model it is a heuristic — no
// approximation guarantee exists for boosted LT — but it returns
// exactly what the full-resimulation reference greedy would, bit-for-bit, at a fraction of
// the simulations. Safe to run concurrently with other read-only pool
// methods (not with Extend).
func (p *Pool) GreedyBoost(k, candCap int) ([]int32, float64, error) {
	return p.GreedyBoostContext(context.Background(), k, candCap)
}

// GreedyBoostContext is GreedyBoost with cooperative cancellation: the
// CELF pick loop polls ctx once per chosen node, so a canceled request
// stops within one profile re-evaluation round.
func (p *Pool) GreedyBoostContext(ctx context.Context, k, candCap int) ([]int32, float64, error) {
	if err := p.kernel.CheckSelect(k); err != nil {
		return nil, 0, err
	}
	return p.greedyBoost(ctx, k, profile.Candidates(p.kernel.Graph(), p.kernel.SeedMask(), k, candCap))
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
	if err := p.kernel.CheckSelect(k); err != nil {
		return nil, 0, err
	}
	return p.greedyBoost(ctx, k, p.kernel.Eligible(cands))
}

// greedyBoost is the shared CELF implementation over a resolved
// candidate list.
func (p *Pool) greedyBoost(ctx context.Context, k int, cands []int32) ([]int32, float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	R := p.kernel.NumProfiles()
	n := p.kernel.Graph().N()
	candMask := make([]bool, n)
	for _, v := range cands {
		candMask[v] = true
	}
	chosenMask := make([]bool, n)

	states := make([]queryState, R)
	for pi := range states {
		pr := p.kernel.Profile(pi)
		states[pi] = queryState{active: pr.Active, front: pr.Front, frontW: pr.Pay}
	}

	gain := make([]int32, n)
	// extra holds query-local inverted-index additions: profiles whose
	// touch set or grown frontier came to include a node after the base
	// index was built. Entries may be stale or duplicated — the affected
	// filter re-checks membership — so appends never need dedup here.
	extra := make([][]int32, n)
	evals := make([]profEval, R)

	// Initial evaluation pass: every profile's candidate gains.
	all := make([]int32, R)
	for i := range all {
		all[i] = int32(i)
	}
	p.evalProfilesInto(all, states, -1, chosenMask, candMask, evals)
	curSum := p.kernel.BaseSum()
	for _, pi := range all {
		st := &states[pi]
		st.pairs, st.touch = evals[pi].pairs, evals[pi].touch
		for _, pr := range st.pairs {
			gain[pr.v] += pr.g
		}
		for _, t := range st.touch {
			extra[t] = append(extra[t], pi)
		}
	}

	// Lazy max-heap with the same exactness contract as prr.SelectDelta:
	// gain[] is authoritative, stale entries are reinserted at the
	// current value, and every gain rise pushes a fresh entry so the
	// heap top always bounds the true maximum.
	h := make(maxcover.Heap, 0, len(cands))
	for _, v := range cands {
		if gain[v] > 0 {
			h = append(h, maxcover.Entry{Item: v, Gain: gain[v]})
		}
	}
	h.Init()

	var chosen []int32
	var affected []int32
	var bumped []int32
	bumpStamp := make([]int32, n)
	profStamp := make([]int32, R)
	round := int32(0)

	for len(chosen) < k && h.Len() > 0 {
		top := h.PopMax()
		if chosenMask[top.Item] {
			continue
		}
		if top.Gain != gain[top.Item] {
			h.PushEntry(maxcover.Entry{Item: top.Item, Gain: gain[top.Item]})
			continue
		}
		if top.Gain == 0 {
			break
		}
		// One poll per pick: the profile re-evaluation below dominates a
		// round, so this bounds cancellation latency to one round while
		// costing nothing measurable on the warm path.
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		best := top.Item
		chosen = append(chosen, best)
		chosenMask[best] = true
		round++

		// Affected profiles: best in the current frontier or in the last
		// eval pass's touch set. The base index plus the extra appends
		// form a superset; membership is re-checked before inclusion.
		affected = affected[:0]
		for _, src := range [2][]int32{p.kernel.FrontierProfiles(best), extra[best]} {
			for _, pi := range src {
				if profStamp[pi] == round {
					continue
				}
				profStamp[pi] = round
				st := &states[pi]
				if containsSorted(st.front, best) || containsSorted(st.touch, best) {
					affected = append(affected, pi)
				}
			}
		}
		sort.Slice(affected, func(i, j int) bool { return affected[i] < affected[j] })

		p.evalProfilesInto(affected, states, best, chosenMask, candMask, evals)

		// Serial apply: retract the affected profiles' old gains, install
		// the new state, and push fresh heap entries for raised gains.
		bumped = bumped[:0]
		for _, pi := range affected {
			st := &states[pi]
			for _, pr := range st.pairs {
				gain[pr.v] -= pr.g
			}
			ev := &evals[pi]
			curSum += int64(ev.delta)
			st.pairs, st.touch = ev.pairs, ev.touch
			for _, pr := range st.pairs {
				gain[pr.v] += pr.g
				if bumpStamp[pr.v] != round {
					bumpStamp[pr.v] = round
					bumped = append(bumped, pr.v)
				}
			}
			for _, t := range st.touch {
				extra[t] = append(extra[t], pi)
			}
			for _, t := range ev.frontAdds {
				extra[t] = append(extra[t], pi)
			}
		}
		for _, v := range bumped {
			if gain[v] > 0 && !chosenMask[v] {
				h.PushEntry(maxcover.Entry{Item: v, Gain: gain[v]})
			}
		}
	}
	return chosen, float64(curSum-p.kernel.BaseSum()) / float64(R), nil
}

// containsSorted reports whether v is in the sorted slice s.
func containsSorted(s []int32, v int32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i < len(s) && s[i] == v
}

// evalProfilesInto runs evalProfile for each listed profile, sharded
// across the pool's workers when the batch is large enough, writing
// results into evals[pi]. Profiles are independent, and each result is
// a pure function of (profile state, pick, masks), so the output does
// not depend on the sharding.
func (p *Pool) evalProfilesInto(pis []int32, states []queryState, pick int32, chosenMask, candMask []bool, evals []profEval) {
	workers := p.kernel.Workers()
	if len(pis) < ltReEvalParallelMin {
		workers = 1
	}
	profile.ForChunks(len(pis), workers, func(_, lo, hi int) {
		s := p.kernel.Scratch()
		defer p.kernel.PutScratch(s)
		for _, pi := range pis[lo:hi] {
			evals[pi] = p.evalProfile(int(pi), &states[pi], pick, chosenMask, candMask, s)
		}
	})
}

// evalProfile applies pick (if >= 0) to one profile's query state and
// recomputes the profile's candidate gains and touch set. It mutates
// st's slices by replacement only; the scratch is left clean.
func (p *Pool) evalProfile(pi int, st *queryState, pick int32, chosenMask, candMask []bool, s *evalScratch) profEval {
	c := p.dynamics()
	ps := p.kernel.Profile(pi).Seed
	s.loadState(st.active, st.front, st.frontW)
	var ev profEval

	if pick >= 0 && !s.active[pick] {
		// The picked node's stored in-weight switches to the boosted
		// probabilities; if that reaches its threshold, it activates and
		// cascades. Modifications stay in the logs for the rebuild below.
		wb := c.boostedInWeight(pick, s)
		s.pushNode = append(s.pushNode, pick)
		s.pushPrev = append(s.pushPrev, s.wIn[pick])
		s.wIn[pick] = wb
		if wb >= theta(ps, pick) {
			s.active[pick] = true
			s.actNode = append(s.actNode, pick)
			s.queue = append(s.queue, pick)
			ev.delta = int32(1 + c.runCascade(ps, chosenMask, -1, s))
		}
		commitState(st, &ev, s)
	}

	// Candidate gains over the (possibly rebuilt) frontier, collecting
	// the union of nodes the tentative cascades touch.
	s.bumpTouchEpoch()
	for _, v := range st.front {
		if !candMask[v] || chosenMask[v] || s.active[v] {
			continue
		}
		g := c.gainOf(ps, v, chosenMask, s, &ev.touch)
		if g > 0 {
			ev.pairs = append(ev.pairs, gainPair{v, g})
		}
	}
	sort.Slice(ev.touch, func(i, j int) bool { return ev.touch[i] < ev.touch[j] })
	s.reset()
	return ev
}

// gainOf evaluates one candidate's marginal activations on the loaded
// profile state: recompute its in-weight under the boosted
// probabilities, tentatively activate and cascade if it reaches its
// threshold, then roll the state back. Touched nodes are appended to
// touch (deduplicated by the caller's tepoch).
func (c *cascade) gainOf(ps uint64, v int32, inB []bool, s *evalScratch, touch *[]int32) int32 {
	w := c.boostedInWeight(v, s)
	if w < theta(ps, v) {
		return 0
	}
	pushMark, actMark := len(s.pushNode), len(s.actNode)
	s.active[v] = true
	s.actNode = append(s.actNode, v)
	s.queue = append(s.queue, v)
	g := int32(1 + c.runCascade(ps, inB, -1, s))
	for _, t := range s.pushNode[pushMark:] {
		if s.tstamp[t] != s.tepoch {
			s.tstamp[t] = s.tepoch
			*touch = append(*touch, t)
		}
	}
	for _, t := range s.actNode[actMark:] {
		if s.tstamp[t] != s.tepoch {
			s.tstamp[t] = s.tepoch
			*touch = append(*touch, t)
		}
	}
	s.rollback(pushMark, actMark)
	return g
}

// commitState rebuilds st's active set and frontier from the scratch
// modification logs after an applied pick, recording nodes that entered
// the frontier in ev.frontAdds. The scratch keeps the committed state
// loaded so candidate gains can be evaluated directly afterwards.
func commitState(st *queryState, ev *profEval, s *evalScratch) {
	newActs := s.actNode
	if len(newActs) > 0 {
		merged := make([]int32, 0, len(st.active)+len(newActs))
		merged = append(merged, st.active...)
		merged = append(merged, newActs...)
		sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
		st.active = merged
	}

	// New frontier: old frontier members plus push targets, minus
	// activations, with weights read off the scratch.
	s.bumpTouchEpoch()
	oldFront := st.front
	var front []int32
	for _, v := range oldFront {
		s.tstamp[v] = s.tepoch
		if !s.active[v] {
			front = append(front, v)
		}
	}
	for _, v := range s.pushNode {
		if s.tstamp[v] == s.tepoch || s.active[v] {
			continue
		}
		s.tstamp[v] = s.tepoch
		front = append(front, v)
		ev.frontAdds = append(ev.frontAdds, v)
	}
	sort.Slice(front, func(i, j int) bool { return front[i] < front[j] })
	frontW := make([]float64, len(front))
	for j, v := range front {
		frontW[j] = s.wIn[v]
	}
	st.front, st.frontW = front, frontW
}
