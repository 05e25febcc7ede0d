package lt

// This file is the LT side of delta graph mutation: Pool.Repair
// transitions a pool to a patched graph by re-running the cached base
// fixed point only for the threshold profiles a delta could have
// changed, copying every other profile's cached state by reference.
//
// A profile's base fixed point depends on the graph only through (a)
// the out-edge lists of its active nodes — those are the only edges the
// cascade ever walks — and (b) the in-weight normalizers norm[t] of its
// push targets, all of which lie in active ∪ frontier and change only
// when t's in-edge list changes. Thresholds θ(ps, v) are a pure hash of
// the profile seed, and profile seeds are drawn serially from the pool
// root before any simulation, so they are graph-independent and survive
// repair: a repaired pool is bit-identical to a cold pool built on the
// patched graph at the same (seed, profiles), and future Extends of the
// two pools stay identical because the root RNG state matches too.

import (
	"fmt"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/model/profile"
)

// Repair transitions the pool from its current graph to g2 — the result
// of applying an edge delta whose per-node out/in-edge dirtiness is
// dirtyOut/dirtyIn (see graph.DeltaEffect) — re-simulating exactly the
// profiles whose base cascade crossed a mutated edge list: those with
// an active node in dirtyOut, or an active or frontier node in dirtyIn.
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
	n := p.kernel.Graph().N()
	if g2.N() != n {
		return 0, false, fmt.Errorf("lt: repair changes node count %d -> %d", n, g2.N())
	}
	if len(dirtyOut) != n || len(dirtyIn) != n {
		return 0, false, fmt.Errorf("lt: dirty masks have %d/%d entries, want %d", len(dirtyOut), len(dirtyIn), n)
	}

	// tally is one worker's hit count and the cascade sizes of its hit
	// and of all its profiles.
	type tally struct {
		hits        int
		cost, total int64
	}
	hit := make([]bool, p.kernel.NumProfiles())
	tallies := make([]tally, p.kernel.Workers())
	profile.ForChunks(len(hit), p.kernel.Workers(), func(w, lo, hi int) {
		var t tally
		for pi := lo; pi < hi; pi++ {
			pr := p.kernel.Profile(pi)
			cost := int64(len(pr.Active) + len(pr.Front))
			t.total += cost
			if crosses(pr.Active, pr.Front, dirtyOut, dirtyIn) {
				hit[pi] = true
				t.hits++
				t.cost += cost
			}
		}
		tallies[w] = t
	})
	var sum tally
	for _, t := range tallies {
		sum.hits += t.hits
		sum.cost += t.cost
		sum.total += t.total
	}
	if sum.total > 0 && float64(sum.cost) > maxFrac*float64(sum.total) {
		return sum.hits, false, nil
	}
	// The patched graph's normalizers change the dynamics; thresholds
	// and profile seeds do not. Only the dirty in-lists' normalizers
	// can differ from the current ones.
	c := p.dynamics()
	p.kernel.Resample(g2, &cascade{m: c.m.patched(g2, dirtyIn), seeds: c.seeds}, hit)
	return sum.hits, true, nil
}

// crosses reports whether a profile's base cascade crossed a mutated
// edge list: an active node with dirty out- or in-edges, or a frontier
// node with dirty in-edges.
func crosses(active, front []int32, dirtyOut, dirtyIn []bool) bool {
	for _, v := range active {
		if dirtyOut[v] || dirtyIn[v] {
			return true
		}
	}
	for _, v := range front {
		if dirtyIn[v] {
			return true
		}
	}
	return false
}
