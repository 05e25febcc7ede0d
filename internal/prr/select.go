package prr

import (
	"context"
	"fmt"
	"sync"

	"github.com/kboost/kboost/internal/maxcover"
)

// This file is the Δ̂ selection subsystem: a persistent inverted index
// over the pool's boostable PRR-graphs, maintained incrementally as the
// pool grows, plus the CELF-style lazy-greedy SelectDelta that runs on
// it. The naive from-scratch implementation it replaced is retained at
// the bottom as selectDeltaNaive, the reference for equivalence tests
// and the warm-selection benchmark.

// deltaIndex is the persistent selection state for a ModeFull pool. It
// is owned by the Pool and mutated only by extendIndex (called from
// Pool.ExtendContext); SelectDelta treats it as read-only, so concurrent
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
}

func newDeltaIndex(n int) *deltaIndex {
	return &deltaIndex{
		n:         n,
		postStart: make([]int32, n+1),
		candStart: []int32{0},
		gain0:     make([]int32, n),
	}
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
// batch in one O(old+new) pass. Extend calls grow the pool
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
	counts := make([]int32, x.n)
	for i := from; i < a.numGraphs(); i++ {
		R := a.at(i)
		for _, v := range R.Nodes() {
			counts[v]++
		}
	}
	newStart := make([]int32, x.n+1)
	for v := 0; v < x.n; v++ {
		newStart[v+1] = newStart[v] + (x.postStart[v+1] - x.postStart[v]) + counts[v]
	}
	newItems := make([]int32, newStart[x.n])
	// next[v] tracks the write cursor per node during the merge.
	next := counts // reuse: overwritten below
	for v := 0; v < x.n; v++ {
		old := x.postItems[x.postStart[v]:x.postStart[v+1]]
		copy(newItems[newStart[v]:], old)
		next[v] = newStart[v] + int32(len(old))
	}
	for i := from; i < a.numGraphs(); i++ {
		R := a.at(i)
		for _, v := range R.Nodes() {
			newItems[next[v]] = int32(i)
			next[v]++
		}
	}
	x.postStart, x.postItems = newStart, newItems
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

// SelectDelta greedily selects up to k nodes maximizing Δ̂ over the pool
// (the non-submodular objective; no worst-case guarantee, per Section
// V-B this is the B_Δ of Algorithm 2 line 4). It returns the chosen
// nodes and the number of covered PRR-graphs.
//
// The implementation is incremental: the inverted index and the initial
// candidate sets are read from the pool's deltaIndex (maintained by
// Extend) instead of being rebuilt, the per-pick argmax is a lazy
// max-heap instead of an O(n) scan, and the post-pick re-evaluation of
// affected graphs is sharded across the pool's workers. It is safe to
// run concurrently with other read-only pool methods (not with Extend)
// and returns exactly what selectDeltaNaive would.
func (p *Pool) SelectDelta(k int) ([]int32, int, error) {
	return p.selectDelta(context.Background(), k, nil)
}

// SelectDeltaAmongContext is SelectDelta restricted to the given
// candidate set, with cooperative cancellation: only listed nodes may
// be picked, and the CELF pick loop polls ctx once per chosen node, so
// a canceled request stops within one re-evaluation round. Coverage
// accounting and gain maintenance still run over the whole pool, so the
// returned covered count means the same thing — only the argmax is
// narrowed. Callers (the engine's tier-0 pre-filter) trade the exact
// greedy for a cheaper one over a shortlist; cands == nil behaves like
// SelectDelta.
func (p *Pool) SelectDeltaAmongContext(ctx context.Context, k int, cands []int32) ([]int32, int, error) {
	if cands == nil {
		return p.selectDelta(ctx, k, nil)
	}
	candMask := make([]bool, p.g.N())
	for _, v := range cands {
		if v >= 0 && int(v) < len(candMask) {
			candMask[v] = true
		}
	}
	return p.selectDelta(ctx, k, candMask)
}

// selectDelta is the shared implementation; a non-nil candMask
// restricts which nodes may enter the heap (initially and on gain
// rises), leaving the rest of the incremental machinery untouched.
func (p *Pool) selectDelta(ctx context.Context, k int, candMask []bool) ([]int32, int, error) {
	if p.mode != ModeFull {
		return nil, 0, fmt.Errorf("prr: SelectDelta requires ModeFull")
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	x := p.sel
	n := p.g.N()
	numGraphs := p.arena.numGraphs()

	// Per-query mutable state. cands[gi] starts as a view into the
	// index; owned[gi] flips when the graph gets its own re-evaluated
	// slice (so the shared index is never written).
	mask := make([]bool, n)
	gain := append([]int32(nil), x.gain0...)
	covered := make([]bool, numGraphs)
	coveredCount := 0
	cands := make([][]int32, numGraphs)
	owned := make([]bool, numGraphs)
	for gi := 0; gi < numGraphs; gi++ {
		cands[gi] = x.initialCands(gi)
	}

	// Lazy max-heap over gains, maxcover's CELF heap with lazy-deletion
	// semantics: gain[] is authoritative; a popped entry whose Gain
	// disagrees is stale and is reinserted at the current value. Gains
	// may *rise* after a pick (Δ̂ is not submodular), so every increment
	// pushes a fresh entry — the heap top is then always an upper bound
	// on the true maximum, which makes the pop loop exact.
	h := make(maxcover.Heap, 0, n/2)
	for v := int32(0); int(v) < n; v++ {
		if gain[v] > 0 && !p.seedMask[v] && (candMask == nil || candMask[v]) {
			h = append(h, maxcover.Entry{Item: v, Gain: gain[v]})
		}
	}
	h.Init()

	scratch := getScratch()
	defer putScratch(scratch)
	// bumped collects the distinct nodes incremented during one pick's
	// re-evaluation (stamped by pick number): each gets a fresh heap
	// entry at its final gain, since increments can raise a gain above
	// every entry the heap holds for it.
	var bumped []int32
	bumpStamp := make([]int32, n)
	evals := make([]reEval, 0, 256)

	var chosen []int32
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
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		best := top.Item
		chosen = append(chosen, best)
		mask[best] = true

		// Re-evaluate the candidate sets of every uncovered graph that
		// contains best; only those can change.
		affected := x.postings(best)
		evals = evals[:0]
		if cap(evals) < len(affected) {
			evals = make([]reEval, 0, len(affected))
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
		// and push heap entries for nodes whose gain rose.
		bumped = bumped[:0]
		for i, gi := range affected {
			if covered[gi] {
				continue
			}
			for _, v := range cands[gi] {
				gain[v]--
			}
			if evals[i].covered {
				covered[gi] = true
				coveredCount++
				cands[gi], owned[gi] = nil, false
				continue
			}
			if owned[gi] {
				cands[gi] = append(cands[gi][:0], evals[i].cands...)
			} else {
				cands[gi] = append([]int32(nil), evals[i].cands...)
				owned[gi] = true
			}
			for _, v := range cands[gi] {
				gain[v]++
				if bumpStamp[v] != int32(len(chosen)) {
					bumpStamp[v] = int32(len(chosen))
					bumped = append(bumped, v)
				}
			}
		}
		for _, v := range bumped {
			if gain[v] > 0 && !mask[v] && !p.seedMask[v] && (candMask == nil || candMask[v]) {
				h.PushEntry(maxcover.Entry{Item: v, Gain: gain[v]})
			}
		}
	}
	return chosen, coveredCount, nil
}

// reEvalParallel shards the post-pick Candidates re-evaluation of the
// affected graphs across the pool's workers. evals must have
// len(affected) entries; covered is read-only here.
func (p *Pool) reEvalParallel(affected []int32, mask, covered []bool, evals []reEval) {
	var wg sync.WaitGroup
	chunk := (len(affected) + p.workers - 1) / p.workers
	for w := 0; w < p.workers; w++ {
		lo := w * chunk
		if lo >= len(affected) {
			break
		}
		hi := lo + chunk
		if hi > len(affected) {
			hi = len(affected)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
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
		}(lo, hi)
	}
	wg.Wait()
}

// The heap invariant behind the pop loop above, spelled out: every
// unmasked node v with gain[v] > 0 always has at least one heap entry
// with Gain >= gain[v]. The initial build covers gain0; decrements only
// make entries stale-high; every node incremented during a pick gets a
// fresh entry at its final gain; and reinsertion on mismatch repairs
// the rest. The top of the heap therefore dominates the true maximum,
// so a popped entry that matches gain[] *is* the argmax — with ties
// broken toward the smallest node id by the heap ordering, exactly like
// the linear scan below.

// selectDeltaNaive is the original from-scratch implementation: it
// rebuilds the inverted index and every candidate set per call and does
// an O(n) scan per pick. Kept unexported as the behavioral reference —
// the equivalence property test and BenchmarkSelectDeltaWarm run it
// against SelectDelta.
func (p *Pool) selectDeltaNaive(k int) ([]int32, int, error) {
	if p.mode != ModeFull {
		return nil, 0, fmt.Errorf("prr: SelectDelta requires ModeFull")
	}
	n := p.g.N()
	numGraphs := p.arena.numGraphs()
	mask := make([]bool, n)
	covered := make([]bool, numGraphs)
	gain := make([]int32, n)
	cands := make([][]int32, numGraphs)

	// Inverted index: original node -> PRR-graphs containing it.
	postings := make([][]int32, n)
	for gi := 0; gi < numGraphs; gi++ {
		R := p.arena.at(gi)
		for _, v := range R.Nodes() {
			postings[v] = append(postings[v], int32(gi))
		}
	}

	// Initial candidate sets, computed in parallel.
	var wg sync.WaitGroup
	chunk := (numGraphs + p.workers - 1) / p.workers
	for w := 0; w < p.workers; w++ {
		lo := w * chunk
		if lo >= numGraphs {
			break
		}
		hi := lo + chunk
		if hi > numGraphs {
			hi = numGraphs
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			s := NewScratch()
			for gi := lo; gi < hi; gi++ {
				R := p.arena.at(gi)
				cov, cs := R.Candidates(mask, s)
				if cov {
					covered[gi] = true // cannot happen for boostable graphs with B=∅
					continue
				}
				cands[gi] = append([]int32(nil), cs...)
			}
		}(lo, hi)
	}
	wg.Wait()
	coveredCount := 0
	for gi := 0; gi < numGraphs; gi++ {
		if covered[gi] {
			coveredCount++
		}
		for _, v := range cands[gi] {
			gain[v]++
		}
	}

	scratch := NewScratch()
	var chosen []int32
	for len(chosen) < k {
		best := int32(-1)
		var bestGain int32
		for v := int32(0); int(v) < n; v++ {
			if mask[v] || p.seedMask[v] {
				continue
			}
			if gain[v] > bestGain {
				best, bestGain = v, gain[v]
			}
		}
		if best < 0 || bestGain == 0 {
			break
		}
		chosen = append(chosen, best)
		mask[best] = true
		for _, gi := range postings[best] {
			if covered[gi] {
				continue
			}
			for _, v := range cands[gi] {
				gain[v]--
			}
			R := p.arena.at(int(gi))
			cov, cs := R.Candidates(mask, scratch)
			if cov {
				covered[gi] = true
				coveredCount++
				cands[gi] = nil
				continue
			}
			cands[gi] = append(cands[gi][:0], cs...)
			for _, v := range cands[gi] {
				gain[v]++
			}
		}
	}
	return chosen, coveredCount, nil
}
