package prr

// This file is the PRR side of delta graph mutation: the per-sketch
// generation log that doubles as a touched-edge index, and Pool.Repair,
// which transitions a pool to a patched graph by regenerating only the
// sketches whose RNG draw sequence a delta could have changed.
//
// The correctness argument rests on two invariants established in
// pool.go and generator.go:
//
//  1. Sketch i is generated from the stateless stream
//     rng.StreamSeed(seed, i), independent of worker count and staging,
//     and the arena stores boostable sketches in global index order.
//  2. A generation's draw sequence is exactly one root draw (a function
//     of n only) plus one draw per in-edge of each expanded node, in
//     deterministic order; everything downstream (raw edges,
//     compression, critical sets) is a pure function of those draws and
//     the seed set.
//
// Therefore a sketch whose expanded nodes all kept their in-edge lists
// is bit-identical on the patched graph — copying it by reference IS
// regenerating it — and a touched sketch regenerated from its stream on
// the patched graph is bit-identical to what a cold pool build at the
// same (seed, total) would produce. Repair yields a pool
// indistinguishable from that cold rebuild.

import (
	"fmt"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/shard"
)

// sketchLog records, for every generated sketch in global index order,
// its classification, its size statistics, and the set of nodes its
// generation expanded (a CSR, discovery-ordered). The expanded sets are
// the pool's touched-edge index: sketch i depends on the graph only
// through the in-edge lists of exp(i).
type sketchLog struct {
	kind     []Kind
	examined []int32
	raw      []int32 // raw edges (boostable sketches; 0 otherwise)
	comp     []int32 // compressed edges (ModeFull boostable; 0 otherwise)
	expStart []int32 // CSR offsets into expItems; len = count+1
	expItems []int32
}

func (l *sketchLog) count() int { return len(l.kind) }

// exp returns sketch i's expanded-node set, aliasing the log
// (kboost:aliased-view).
func (l *sketchLog) exp(i int) []int32 {
	return l.expItems[l.expStart[i]:l.expStart[i+1]]
}

func (l *sketchLog) reset() {
	l.kind = l.kind[:0]
	l.examined = l.examined[:0]
	l.raw = l.raw[:0]
	l.comp = l.comp[:0]
	l.expStart = l.expStart[:0]
	l.expItems = l.expItems[:0]
}

// append records one generation result and its expanded-node set.
func (l *sketchLog) append(res Result, expanded []int32) {
	if len(l.expStart) == 0 {
		l.expStart = append(l.expStart, 0)
	}
	l.kind = append(l.kind, res.Kind)
	l.examined = append(l.examined, int32(res.EdgesExamined))
	l.raw = append(l.raw, int32(res.RawEdges))
	l.comp = append(l.comp, int32(res.CompressedEdges))
	l.expItems = append(l.expItems, expanded...)
	l.expStart = append(l.expStart, int32(len(l.expItems)))
}

// appendFrom copies sketch i of src onto l.
func (l *sketchLog) appendFrom(src *sketchLog, i int) {
	if len(l.expStart) == 0 {
		l.expStart = append(l.expStart, 0)
	}
	l.kind = append(l.kind, src.kind[i])
	l.examined = append(l.examined, src.examined[i])
	l.raw = append(l.raw, src.raw[i])
	l.comp = append(l.comp, src.comp[i])
	l.expItems = append(l.expItems, src.exp(i)...)
	l.expStart = append(l.expStart, int32(len(l.expItems)))
}

// appendLog bulk-appends src onto l (the shard merge).
func (l *sketchLog) appendLog(src *sketchLog) {
	if src.count() == 0 {
		return
	}
	if len(l.expStart) == 0 {
		l.expStart = append(l.expStart, 0)
	}
	base := int32(len(l.expItems))
	l.kind = append(l.kind, src.kind...)
	l.examined = append(l.examined, src.examined...)
	l.raw = append(l.raw, src.raw...)
	l.comp = append(l.comp, src.comp...)
	l.expItems = append(l.expItems, src.expItems...)
	for _, off := range src.expStart[1:] {
		l.expStart = append(l.expStart, base+off)
	}
}

// bytes returns the log's resident size, counted by capacity.
func (l *sketchLog) bytes() int64 {
	return int64(cap(l.examined)+cap(l.raw)+cap(l.comp)+cap(l.expStart)+cap(l.expItems))*4 +
		int64(cap(l.kind))
}

// Repair transitions the pool from its current graph to g2 — the result
// of applying an edge delta whose per-node in-edge dirtiness is dirtyIn
// (see graph.DeltaEffect) — by regenerating exactly the sketches whose
// expanded region touches a dirty in-edge list and copying every other
// sketch by reference. The repaired pool is bit-identical to a cold
// pool built on g2 at the same (seed, total): contents, statistics,
// estimates and selections all match, which is the property the engine's
// equivalence gate asserts.
//
// touched reports how many sketches needed regeneration. When the
// touched share of the pool's total expansion size — the number of
// nodes the generation BFSes examined, the quantity regeneration cost
// is actually proportional to — exceeds maxFrac (0 < maxFrac <= 1),
// Repair declines without mutating the pool and returns ok == false: at
// high touched cost a cold rebuild is cheaper than a repair that
// resamples almost everything and still rebuilds the indexes. Weighting
// by expansion size instead of sketch count matters on dense
// supercritical graphs, where a sketch's probability of being touched
// and its regeneration cost are both proportional to its expansion: the
// ~15% of sketches a small delta touches there can carry ~75% of the
// pool's generation cost, making repair as slow as a rebuild even
// though the touched count looks low. The caller decides what to do
// with a declined pool (the engine drops it).
//
// The node universe is fixed: g2 must have the same node count (deltas
// mutate edges only). Growing the universe is a re-upload.
func (p *Pool) Repair(g2 *graph.Graph, dirtyIn []bool, maxFrac float64) (touched int, ok bool, err error) {
	n := p.g.N()
	if g2.N() != n {
		return 0, false, fmt.Errorf("prr: repair changes node count %d -> %d", n, g2.N())
	}
	if len(dirtyIn) != n {
		return 0, false, fmt.Errorf("prr: dirtyIn has %d entries, want %d", len(dirtyIn), n)
	}

	total := p.total
	// Touched scan: parallel over contiguous index ranges, accumulating
	// the touched count, the touched expansion size (the cost weight for
	// the fallback decision below) and the boostable count, whose prefix
	// sums give each range's first arena row (arena order == global
	// index order among boostable sketches).
	touchedMask := sized(&p.touched, total)
	perWorker := make([]int, p.workers)
	perWorkerExp := make([]int64, p.workers)
	rowStart := make([]int, p.workers+1)
	shard.Each(total, p.workers, func(w, lo, hi int) {
		c, rows := 0, 0
		var exp int64
		for i := lo; i < hi; i++ {
			if p.log.kind[i] == KindBoostable {
				rows++
			}
			for _, v := range p.log.exp(i) {
				if dirtyIn[v] {
					touchedMask[i] = true
					c++
					exp += int64(len(p.log.exp(i)))
					break
				}
			}
		}
		perWorker[w] = c
		perWorkerExp[w] = exp
		rowStart[w+1] = rows
	})
	var touchedExp int64
	for w := range perWorker {
		touched += perWorker[w]
		touchedExp += perWorkerExp[w]
		rowStart[w+1] += rowStart[w]
	}
	totalExp := int64(len(p.log.expItems))
	if totalExp > 0 && float64(touchedExp) > maxFrac*float64(totalExp) {
		return touched, false, nil
	}

	// The generators keep their node-sized scratch: the node universe is
	// fixed, so pointing them at the patched graph is all a rebuild
	// needs from them.
	for _, gen := range p.gens {
		gen.rebind(g2)
	}

	// Rebuild: workers take the same contiguous index ranges as the
	// touched scan, regenerating touched sketches from their stateless
	// streams and copying untouched ones out of the old arena and log.
	shard.Each(total, p.workers, func(w, lo, hi int) {
		r := p.streams[w]
		gen := p.gens[w]
		sh := p.shards[w]
		sh.reset()
		row := rowStart[w]
		for i := lo; i < hi; i++ {
			boostable := p.log.kind[i] == KindBoostable
			if touchedMask[i] {
				r.ReseedStream(p.seed, uint64(i))
				res := gen.GenerateInto(&sh.arena, r)
				sh.record(res, gen.lastExpanded)
			} else {
				sh.log.appendFrom(&p.log, i)
				if boostable {
					sh.arena.appendGraph(&p.arena, row)
				}
			}
			if boostable {
				row++
			}
		}
	})

	// The old arena and log are no longer a copy source: merge the
	// shards back into their storage in worker order, then recompute
	// counters and refill the coverage/selection indexes in place from
	// the repaired arena — critical sets are reused from the arena, so
	// no sampling happens here.
	p.arena.reset()
	p.log.reset()
	for _, sh := range p.shards[:min(total, p.workers)] {
		p.arena.appendArena(&sh.arena)
		p.log.appendLog(&sh.log)
		sh.reset()
	}
	p.g = g2

	p.numActivated, p.numHopeless, p.numBoostable = 0, 0, 0
	p.sumRaw, p.sumCompressed, p.sumExamined, p.sumCritical = 0, 0, 0, 0
	for i := 0; i < total; i++ {
		p.sumExamined += int64(p.log.examined[i])
		switch p.log.kind[i] {
		case KindActivated:
			p.numActivated++
		case KindHopeless:
			p.numHopeless++
		case KindBoostable:
			p.numBoostable++
			p.sumRaw += int64(p.log.raw[i])
			p.sumCompressed += int64(p.log.comp[i])
		}
	}
	p.cov.Reset()
	for i := 0; i < p.arena.numGraphs(); i++ {
		crit := p.arena.critAt(i)
		p.sumCritical += int64(len(crit))
		p.cov.AddSortedSet(crit)
	}
	if p.sel != nil {
		p.sel.reset()
		p.sel.extend(&p.arena, 0)
	}
	p.generation++
	return touched, true, nil
}
