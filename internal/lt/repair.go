package lt

// This file is the LT side of delta graph mutation: Pool.Repair
// transitions a pool to a patched graph by re-running the cached base
// fixed point only for the threshold profiles a delta changed, copying
// every other profile's cached state by reference.
//
// A profile's base cascade reads the graph in two places only. It walks
// the out-lists of its active nodes, in their stored (target) order,
// skipping every push into a node already active; seeds are active
// before the first push, so a push into a seed never happens. And each
// push into a target t divides by t's normalizer norm[t], where every
// pushed t ends in active ∪ frontier. So the cascade, its frontier and
// its frontier weights are unchanged, step for step, unless
//
//   - some active node's out-list changed on a non-seed target: a
//     target added or removed, or its base probability p changed (p′ is
//     never read by the base cascade), or
//   - some non-seed node of active ∪ frontier has a normalizer that
//     moved.
//
// Edges into seeds are skipped because their pushes never happen: a
// delta on them, or on a seed's normalizer, changes no profile.
// Thresholds θ(ps, v) are a pure hash of the profile seed, and profile
// seeds are drawn serially from the pool root before any simulation, so
// they are graph-independent and survive repair: a repaired pool is
// bit-identical to a cold pool built on the patched graph at the same
// (seed, profiles), and future Extends of the two pools stay identical
// because the root RNG state matches too.

import (
	"fmt"
	"math"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/model/profile"
)

// Repair transitions the pool from its current graph to g2 — the result
// of applying an edge delta whose per-node out/in-edge dirtiness is
// dirtyOut/dirtyIn (see graph.DeltaEffect) — re-simulating exactly the
// profiles whose base cascade the delta changed: those with an active
// node whose out-list changed on a non-seed target (membership or base
// probability), or with a non-seed node of active ∪ frontier whose
// normalizer moved (see the file comment). Only dirtyOut nodes' out-lists
// are compared and only dirtyIn nodes' normalizers re-summed. A delta
// that only touches edges into seeds, edges out of nodes no profile
// activates, or boosted probabilities without moving a normalizer
// re-simulates nothing.
//
// touched reports how many profiles needed re-simulation. When the
// touched share of the pool's total stored cascade size — each
// profile's active-set plus frontier length, the quantity
// re-simulation cost is proportional to — exceeds maxFrac
// (0 < maxFrac <= 1), Repair declines without mutating the pool and
// returns ok == false; the caller decides what to do with a declined
// pool (the engine drops it and lets the next query rebuild cold).
// Weighting by cascade size instead of profile count mirrors the PRR
// repair fallback: on dense supercritical graphs the profiles a delta
// touches are exactly the expensive ones, so an unweighted count
// understates the repair bill.
//
// The node universe is fixed: g2 must have the same node count (deltas
// mutate edges only). Growing the universe is a re-upload.
func (p *Pool) Repair(g2 *graph.Graph, dirtyOut, dirtyIn []bool, maxFrac float64) (touched int, ok bool, err error) {
	g := p.kernel.Graph()
	n := g.N()
	if g2.N() != n {
		return 0, false, fmt.Errorf("lt: repair changes node count %d -> %d", n, g2.N())
	}
	if len(dirtyOut) != n || len(dirtyIn) != n {
		return 0, false, fmt.Errorf("lt: dirty masks have %d/%d entries, want %d", len(dirtyOut), len(dirtyIn), n)
	}

	// The patched graph's normalizers change the dynamics; thresholds
	// and profile seeds do not. Only the dirty in-lists' normalizers
	// can differ from the current ones.
	c := p.dynamics()
	seed := p.kernel.SeedMask()
	moved := make([]bool, n)
	m2 := c.m.patched(g2, dirtyIn, moved)
	src := make([]bool, n)
	crossed := false // some node can change a profile
	for v := range moved {
		if seed[v] {
			moved[v] = false
		}
		src[v] = dirtyOut[v] && outChanged(g, g2, int32(v), seed)
		crossed = crossed || moved[v] || src[v]
	}

	// tally is one worker's hit count and the cascade sizes of its hit
	// and of all its profiles.
	type tally struct {
		hits        int
		cost, total int64
	}
	hit := make([]bool, p.kernel.NumProfiles())
	var sum tally
	if crossed {
		tallies := make([]tally, p.kernel.Workers())
		profile.ForChunks(len(hit), p.kernel.Workers(), func(w, lo, hi int) {
			var t tally
			for pi := lo; pi < hi; pi++ {
				pr := p.kernel.Profile(pi)
				cost := int64(len(pr.Active) + len(pr.Front))
				t.total += cost
				if crosses(pr.Active, pr.Front, src, moved) {
					hit[pi] = true
					t.hits++
					t.cost += cost
				}
			}
			tallies[w] = t
		})
		for _, t := range tallies {
			sum.hits += t.hits
			sum.cost += t.cost
			sum.total += t.total
		}
	}
	if sum.total > 0 && float64(sum.cost) > maxFrac*float64(sum.total) {
		return sum.hits, false, nil
	}
	p.kernel.Resample(g2, &cascade{m: m2, seeds: c.seeds}, hit)
	return sum.hits, true, nil
}

// outChanged reports whether u's out-list differs between g and g2 on
// a non-seed target: a target present in only one of them, or one
// whose base probability changed. Out-lists are sorted by target, so
// one merge pass compares them.
func outChanged(g, g2 *graph.Graph, u int32, seed []bool) bool {
	a, pa := g.OutTo(u), g.OutP(u)
	b, pb := g2.OutTo(u), g2.OutP(u)
	for i, j := 0, 0; i < len(a) || j < len(b); {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			if !seed[a[i]] {
				return true
			}
			i++
		case i == len(a) || b[j] < a[i]:
			if !seed[b[j]] {
				return true
			}
			j++
		default:
			if !seed[a[i]] && math.Float64bits(pa[i]) != math.Float64bits(pb[j]) {
				return true
			}
			i, j = i+1, j+1
		}
	}
	return false
}

// crosses reports whether the delta changed a profile's base cascade:
// an active node whose out-list changed (src) or whose normalizer moved,
// or a frontier node whose normalizer moved. moved holds no seed.
func crosses(active, front []int32, src, moved []bool) bool {
	for _, v := range active {
		if src[v] || moved[v] {
			return true
		}
	}
	for _, v := range front {
		if moved[v] {
			return true
		}
	}
	return false
}
