package prr

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"github.com/kboost/kboost/internal/maxcover"
	"github.com/kboost/kboost/internal/shard"
)

// This file is the Δ̂ selection subsystem: a persistent inverted index
// over the pool's boostable PRR-graphs, maintained incrementally as the
// pool grows, plus the CELF-style lazy greedy (selectDelta) that runs
// on it. The naive from-scratch implementation it replaced lives in
// select_naive_test.go as selectDeltaNaive, the reference for the
// equivalence tests and the warm-selection benchmark.

// deltaIndex is the persistent selection state for a ModeFull pool. It
// is owned by the Pool and mutated only by extendIndex (called from
// Pool.ExtendContext); selectDelta treats it as read-only, so concurrent
// selections may share it.
//
// Both mappings are stored flat (CSR-style) rather than as [][]int32:
// one offset array plus one item array each, which halves the memory of
// a posting list and keeps iteration cache-friendly.
type deltaIndex struct {
	n int // item universe: nodes of the original graph

	// postStart/postItems: original node -> ids of the boostable
	// PRR-graphs whose compressed form contains it.
	postStart []int32
	postItems []int32

	// candStart/candItems: PRR-graph id -> its initial candidate set
	// (the nodes v with f_R({v}) = 1, i.e. Candidates under B = ∅).
	// Graph ids only ever grow, so this CSR is append-only.
	candStart []int32
	candItems []int32

	// gain0[v] = number of graphs whose initial candidate set contains
	// v: the marginal gains of the first greedy pick, precomputed.
	gain0 []int32

	// cursor is extend's per-node batch count and write cursor, kept so
	// a merge allocates nothing node-sized.
	cursor []int32
}

func newDeltaIndex(n int) *deltaIndex {
	return &deltaIndex{
		n:         n,
		postStart: make([]int32, n+1),
		candStart: []int32{0},
		gain0:     make([]int32, n),
	}
}

// reset empties the index in place for a rebuild over the same node
// universe (pool repair), keeping every backing array's capacity.
func (x *deltaIndex) reset() {
	clear(x.postStart)
	x.postItems = x.postItems[:0]
	x.candStart = x.candStart[:1]
	x.candItems = x.candItems[:0]
	clear(x.gain0)
}

// bytes returns the index's resident size, counted by capacity.
func (x *deltaIndex) bytes() int64 {
	return int64(cap(x.postStart)+cap(x.postItems)+cap(x.candStart)+cap(x.candItems)+cap(x.gain0)+cap(x.cursor)) * 4
}

// numGraphs returns the number of indexed PRR-graphs.
func (x *deltaIndex) numGraphs() int { return len(x.candStart) - 1 }

// postings returns the graph ids containing node v.
func (x *deltaIndex) postings(v int32) []int32 {
	return x.postItems[x.postStart[v]:x.postStart[v+1]]
}

// initialCands returns graph gi's candidate set under B = ∅. The result
// aliases the index and must not be modified.
func (x *deltaIndex) initialCands(gi int) []int32 {
	return x.candItems[x.candStart[gi]:x.candStart[gi+1]]
}

// extend indexes a.refs[from:]. A graph's initial candidate set — the
// nodes v with f_R({v}) = 1 under B = ∅ — is by definition its critical
// set C_R, which the generation workers already extracted into the
// arena while each graph was cache-hot; extending the index is
// therefore pure merging: candidate rows are copied out of the arena
// and the posting CSR is rebuilt by interleaving the old lists with the
// batch in one O(old+new) pass, in place. Extend calls grow the pool
// geometrically, so the merge amortizes to
// O(total postings × log(growth steps)) over the pool's lifetime —
// versus O(total postings) per *query* for the naive path.
func (x *deltaIndex) extend(a *arena, from int) {
	batch := a.numGraphs() - from
	if batch == 0 {
		return
	}

	// Candidate CSR and first-pick gains: append-only, in arena order.
	for i := from; i < a.numGraphs(); i++ {
		cs := a.critAt(i)
		x.candItems = append(x.candItems, cs...)
		x.candStart = append(x.candStart, int32(len(x.candItems)))
		for _, v := range cs {
			x.gain0[v]++
		}
	}

	// Posting CSR: count the batch contribution per node, then merge.
	counts := sized(&x.cursor, x.n)
	added := 0
	for i := from; i < a.numGraphs(); i++ {
		R := a.at(i)
		for _, v := range R.Nodes() {
			counts[v]++
		}
		added += R.NumNodes() - 1
	}
	x.postItems = slices.Grow(x.postItems, added)[:len(x.postItems)+added]
	// Every old list moves right by the batch postings of the nodes
	// before it, so a pass from the last node down moves each list
	// before anything lands on it. shift is that batch prefix for v;
	// postStart[v+1] becomes v's new end once v's old bounds are read,
	// and counts[v] becomes v's batch write cursor.
	shift := int32(added)
	for v := x.n - 1; v >= 0; v-- {
		shift -= counts[v]
		lo, hi := x.postStart[v], x.postStart[v+1]
		copy(x.postItems[lo+shift:], x.postItems[lo:hi])
		x.postStart[v+1] = hi + shift + counts[v]
		counts[v] = hi + shift
	}
	for i := from; i < a.numGraphs(); i++ {
		R := a.at(i)
		for _, v := range R.Nodes() {
			x.postItems[counts[v]] = int32(i)
			counts[v]++
		}
	}
}

// scratchPool recycles BFS scratch buffers across selections and index
// extensions; per-query ownership keeps concurrent selections safe.
var scratchPool = sync.Pool{New: func() interface{} { return NewScratch() }}

func getScratch() *Scratch  { return scratchPool.Get().(*Scratch) }
func putScratch(s *Scratch) { scratchPool.Put(s) }

// reEvalParallelMin is the minimum number of affected PRR-graphs per
// greedy pick before the re-evaluation fans out to the pool's workers;
// below it the goroutine handoff costs more than the BFSes. A variable
// so tests can force the parallel path on small pools.
var reEvalParallelMin = 192

// reEval is one post-pick re-evaluation result.
type reEval struct {
	covered bool
	cands   []int32
}

// SelectDeltaAmongContext greedily selects up to k nodes maximizing Δ̂
// over the pool (the non-submodular objective; no worst-case guarantee,
// per Section V-B this is the B_Δ of Algorithm 2 line 4). It returns
// the chosen nodes and the number of covered PRR-graphs. cands == nil
// lets every node be picked; otherwise only listed nodes may be, while
// coverage accounting and gain maintenance still run over the whole
// pool, so the returned covered count means the same thing — only the
// argmax is narrowed. Callers (the engine's tier-0 pre-filter) trade
// the exact greedy for a cheaper one over a shortlist. The CELF pick
// loop polls ctx once per chosen node, so a canceled request stops
// within one re-evaluation round.
func (p *Pool) SelectDeltaAmongContext(ctx context.Context, k int, cands []int32) ([]int32, int, error) {
	return p.selectDelta(ctx, k, cands)
}

// deltaScratch is one selectDelta call's working state, recycled
// through the pool's free list. Between calls every mask in it is all
// clear: a call clears the node masks at its picks (and its candidate
// list) and the graph masks along its picks' postings, which is where
// it set them.
type deltaScratch struct {
	mask     []bool  // node -> picked
	candMask []bool  // node -> may be picked (restricted calls)
	bumped   []bool  // node -> in this pick's bumps list
	gain     []int32 // node -> authoritative gain; copied from gain0 per call
	bumps    []int32 // nodes whose gain rose during the current pick

	// covered[gi] marks graphs the picks cover. owned[gi] marks graphs
	// whose candidate set was re-evaluated: it is then
	// ownItems[ownOff[gi]:][:ownLen[gi]] instead of the index's initial
	// row, which is never written.
	covered, owned []bool
	ownOff, ownLen []int32
	ownItems       []int32

	heap  maxcover.Heap
	evals []reEval

	size int64 // bytes(), taken when the scratch was last put back
}

func (s *deltaScratch) bytes() int64 {
	b := int64(cap(s.mask) + cap(s.candMask) + cap(s.bumped) + cap(s.covered) + cap(s.owned))
	b += int64(cap(s.gain)+cap(s.bumps)+cap(s.ownOff)+cap(s.ownLen)+cap(s.ownItems)) * 4
	b += int64(cap(s.heap)) * 12
	b += int64(cap(s.evals)) * int64(unsafe.Sizeof(reEval{}))
	for _, e := range s.evals[:cap(s.evals)] {
		b += int64(cap(e.cands)) * 4
	}
	return b
}

// selectDelta is the shared implementation; a non-nil among restricts
// which nodes may enter the heap (initially and on gain rises), leaving
// the rest of the incremental machinery untouched.
//
// It is incremental: the inverted index and the initial candidate sets
// are read from the pool's deltaIndex (maintained by Extend) instead of
// being rebuilt, the per-pick argmax is a lazy max-heap instead of an
// O(n) scan, and the post-pick re-evaluation of affected graphs is
// sharded across the pool's workers. Its working arrays come from the
// pool's free list (deltaScratch). It is safe to run concurrently with
// other read-only pool methods (not with Extend) and returns exactly
// what selectDeltaNaive would.
func (p *Pool) selectDelta(ctx context.Context, k int, among []int32) ([]int32, int, error) {
	if p.mode != ModeFull {
		return nil, 0, fmt.Errorf("prr: Δ̂ selection requires ModeFull")
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	x := p.sel
	n := p.g.N()
	numGraphs := p.arena.numGraphs()

	s := p.deltaFree.Get()
	mask := sizedDirty(&s.mask, n)
	bumped := sizedDirty(&s.bumped, n)
	gain := sizedDirty(&s.gain, n)
	copy(gain, x.gain0)
	covered := sizedDirty(&s.covered, numGraphs)
	owned := sizedDirty(&s.owned, numGraphs)
	ownOff := sizedDirty(&s.ownOff, numGraphs)
	ownLen := sizedDirty(&s.ownLen, numGraphs)
	ownItems, bumps := s.ownItems[:0], s.bumps[:0]
	var candMask []bool
	if among != nil {
		candMask = sizedDirty(&s.candMask, n)
		for _, v := range among {
			if v >= 0 && int(v) < n {
				candMask[v] = true
			}
		}
	}
	coveredCount := 0

	// Lazy max-heap over gains, maxcover's CELF heap with lazy-deletion
	// semantics: gain[] is authoritative; a popped entry whose Gain
	// disagrees is stale and is reinserted at the current value. Gains
	// may *rise* after a pick (Δ̂ is not submodular), so every increment
	// pushes a fresh entry — the heap top is then always an upper bound
	// on the true maximum, which makes the pop loop exact.
	h := s.heap[:0]
	for v := int32(0); int(v) < n; v++ {
		if gain[v] > 0 && !p.seedMask[v] && (candMask == nil || candMask[v]) {
			h = append(h, maxcover.Entry{Item: v, Gain: gain[v]})
		}
	}
	h.Init()

	scratch := getScratch()
	defer putScratch(scratch)
	evals := s.evals[:0]

	chosen := make([]int32, 0, min(k, h.Len()))
	var err error
	for len(chosen) < k && h.Len() > 0 {
		top := h.PopMax()
		if mask[top.Item] {
			continue // already picked (duplicate entry)
		}
		if top.Gain != gain[top.Item] {
			h.PushEntry(maxcover.Entry{Item: top.Item, Gain: gain[top.Item]})
			continue
		}
		if top.Gain == 0 {
			break
		}
		// One poll per pick: re-evaluation below is the expensive part
		// of a round, so this bounds cancellation latency to one round
		// while costing nothing measurable on the warm path.
		if err = ctx.Err(); err != nil {
			break
		}
		best := top.Item
		chosen = append(chosen, best)
		mask[best] = true

		// Re-evaluate the candidate sets of every uncovered graph that
		// contains best; only those can change.
		affected := x.postings(best)
		if cap(evals) < len(affected) {
			// Grow over the full capacity so every entry keeps its
			// candidate buffer.
			evals = slices.Grow(evals[:cap(evals)], len(affected)-cap(evals))
		}
		evals = evals[:len(affected)]
		if len(affected) >= reEvalParallelMin && p.workers > 1 {
			p.reEvalParallel(affected, mask, covered, evals)
		} else {
			for i, gi := range affected {
				if covered[gi] {
					continue
				}
				R := p.arena.at(int(gi))
				cov, cs := R.Candidates(mask, scratch)
				evals[i] = reEval{covered: cov, cands: append(evals[i].cands[:0], cs...)}
			}
		}

		// Apply serially: retract old gains, install new candidate sets,
		// and push heap entries for nodes whose gain rose — each once,
		// at its final gain, since increments can raise a gain above
		// every entry the heap holds for it.
		for i, gi := range affected {
			if covered[gi] {
				continue
			}
			old := x.initialCands(int(gi))
			if owned[gi] {
				old = ownItems[ownOff[gi]:][:ownLen[gi]]
			}
			for _, v := range old {
				gain[v]--
			}
			if evals[i].covered {
				covered[gi] = true
				coveredCount++
				continue
			}
			cs := evals[i].cands
			if owned[gi] && len(cs) <= len(old) {
				copy(old, cs)
			} else {
				ownOff[gi] = int32(len(ownItems))
				ownItems = append(ownItems, cs...)
				owned[gi] = true
			}
			ownLen[gi] = int32(len(cs))
			for _, v := range cs {
				gain[v]++
				if !bumped[v] {
					bumped[v] = true
					bumps = append(bumps, v)
				}
			}
		}
		for _, v := range bumps {
			bumped[v] = false
			if gain[v] > 0 && !mask[v] && !p.seedMask[v] && (candMask == nil || candMask[v]) {
				h.PushEntry(maxcover.Entry{Item: v, Gain: gain[v]})
			}
		}
		bumps = bumps[:0]
	}

	for _, v := range chosen {
		mask[v] = false
		for _, gi := range x.postings(v) {
			covered[gi], owned[gi] = false, false
		}
	}
	for _, v := range among {
		if v >= 0 && int(v) < n {
			candMask[v] = false
		}
	}
	s.heap, s.evals, s.ownItems, s.bumps = h[:0], evals[:0], ownItems[:0], bumps
	s.size = s.bytes()
	p.deltaFree.Put(s)
	if err != nil {
		return nil, 0, err
	}
	return chosen, coveredCount, nil
}

// reEvalParallel shards the post-pick Candidates re-evaluation of the
// affected graphs across the pool's workers. evals must have
// len(affected) entries; covered is read-only here.
func (p *Pool) reEvalParallel(affected []int32, mask, covered []bool, evals []reEval) {
	shard.Each(len(affected), p.workers, func(_, lo, hi int) {
		s := getScratch()
		defer putScratch(s)
		for i := lo; i < hi; i++ {
			gi := affected[i]
			if covered[gi] {
				continue
			}
			R := p.arena.at(int(gi))
			cov, cs := R.Candidates(mask, s)
			evals[i] = reEval{covered: cov, cands: append(evals[i].cands[:0], cs...)}
		}
	})
}

// The heap invariant behind the pop loop above, spelled out: every
// unmasked node v with gain[v] > 0 always has at least one heap entry
// with Gain >= gain[v]. The initial build covers gain0; decrements only
// make entries stale-high; every node incremented during a pick gets a
// fresh entry at its final gain; and reinsertion on mismatch repairs
// the rest. The top of the heap therefore dominates the true maximum,
// so a popped entry that matches gain[] *is* the argmax — with ties
// broken toward the smallest node id by the heap ordering, exactly like
// selectDeltaNaive's linear scan (select_naive_test.go).
