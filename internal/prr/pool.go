package prr

import (
	"context"
	"fmt"
	"runtime"
	"unsafe"

	"github.com/kboost/kboost/internal/freelist"
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/imm"
	"github.com/kboost/kboost/internal/maxcover"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/shard"
)

// Pool is a growable collection of random PRR-graphs for a fixed
// (graph, seed set, k). It implements imm.Sketcher over the critical
// node sets (the μ lower bound), and — in ModeFull — supports greedy
// selection and estimation of the true boost objective Δ̂.
//
// Storage is arena-backed (see arena.go): all boostable graphs live in
// shared flat arrays, so growing the pool costs O(1) allocations per
// backing array instead of O(graphs × 9), selection re-evaluation walks
// contiguous memory, and MemoryEstimate is exact.
//
// Estimates are normalized by the total number of generated PRR-graphs,
// including activated and hopeless ones (they contribute f_R ≡ 0).
type Pool struct {
	g        *graph.Graph
	seeds    []int32
	seedMask []bool
	k        int
	mode     Mode
	workers  int
	seed     uint64
	streams  []*rng.Source // per-worker scratch Sources, reseeded per sketch
	gens     []*Generator
	shards   []*extendShard // per-worker emission buffers, reused across Extends

	// log records every generated sketch — kind, size statistics, and
	// the expanded-node set that determines its RNG draw sequence — in
	// global sketch-index order. It is what makes Repair possible: the
	// expanded sets are the per-sketch touched-edge index, and the
	// statistics let counters be recomputed after selective resampling.
	log sketchLog

	cov   *maxcover.Coverage // critical sets of boostable graphs
	arena arena              // flat storage of the boostable graphs (ModeFull: full structure; ModeLB: critical sets only)
	sel   *deltaIndex        // ModeFull: persistent Δ̂ selection index

	// deltaFree recycles selectDelta's working arrays across queries;
	// touched is Repair's per-sketch touched mask, kept between repairs.
	deltaFree *freelist.List[deltaScratch]
	touched   []bool

	// zeroMask is a shared all-false boost mask (read-only) used when
	// computing initial candidate sets.
	zeroMask []bool
	// generation counts Extend calls that added PRR-graphs. Estimates
	// and selections depend only on the pool contents, so callers may
	// cache results keyed by (generation, k) and invalidate on change.
	generation uint64

	total         int
	numActivated  int
	numHopeless   int
	numBoostable  int
	sumRaw        int64
	sumCompressed int64
	sumExamined   int64
	sumCritical   int64
}

// extendShard is one worker's private output for an Extend call: an
// arena of freshly generated boostable graphs plus the batch
// statistics. Shards are merged into the pool in worker order, so pool
// contents are bit-identical to the serial merge for any fixed
// (seed, workers) pair.
type extendShard struct {
	arena arena
	log   sketchLog

	total, activated, hopeless, boostable int
	sumRaw, sumCompressed, sumExamined    int64
}

func (sh *extendShard) reset() {
	sh.arena.reset()
	sh.log.reset()
	sh.total, sh.activated, sh.hopeless, sh.boostable = 0, 0, 0, 0
	sh.sumRaw, sh.sumCompressed, sh.sumExamined = 0, 0, 0
}

// record tallies one generation result into the shard.
func (sh *extendShard) record(res Result, expanded []int32) {
	sh.log.append(res, expanded)
	sh.total++
	sh.sumExamined += int64(res.EdgesExamined)
	switch res.Kind {
	case KindActivated:
		sh.activated++
	case KindHopeless:
		sh.hopeless++
	case KindBoostable:
		sh.boostable++
		sh.sumRaw += int64(res.RawEdges)
		sh.sumCompressed += int64(res.CompressedEdges)
	}
}

// NewPool creates an empty pool. workers <= 0 means GOMAXPROCS.
func NewPool(g *graph.Graph, seeds []int32, k int, mode Mode, seed uint64, workers int) (*Pool, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		g:        g,
		seeds:    append([]int32(nil), seeds...),
		seedMask: make([]bool, g.N()),
		k:        k,
		mode:     mode,
		workers:  workers,
		seed:     seed,
		cov:      maxcover.New(g.N()),
		zeroMask: make([]bool, g.N()),

		deltaFree: freelist.New(func(s *deltaScratch) int64 { return s.size }),
	}
	if mode == ModeFull {
		p.sel = newDeltaIndex(g.N())
	}
	for w := 0; w < workers; w++ {
		gen, err := NewGenerator(g, seeds, k, mode)
		if err != nil {
			return nil, err
		}
		p.gens = append(p.gens, gen)
		p.streams = append(p.streams, rng.New(seed))
		p.shards = append(p.shards, &extendShard{})
	}
	for _, s := range seeds {
		p.seedMask[s] = true
	}
	return p, nil
}

// Size returns the total number of PRR-graphs generated (all kinds).
func (p *Pool) Size() int { return p.total }

// Graph returns the influence graph the pool samples from.
func (p *Pool) Graph() *graph.Graph { return p.g }

// Seeds returns the seed set the pool was built for. The returned slice
// is owned by the pool (kboost:aliased-view); callers must not modify
// it.
func (p *Pool) Seeds() []int32 { return p.seeds }

// K returns the generation budget: PRR-graphs were classified and
// compressed assuming boost sets of at most K nodes, so the pool can
// serve any query with k <= K.
func (p *Pool) K() int { return p.k }

// Mode returns the materialization mode the pool generates with.
func (p *Pool) Mode() Mode { return p.mode }

// NumBoostable returns the number of boostable PRR-graphs stored.
func (p *Pool) NumBoostable() int { return p.numBoostable }

// ExtendContext grows the pool to at least target total PRR-graphs.
//
// Sketch i — globally indexed across the pool's lifetime — is always
// generated from the stateless stream rng.StreamSeed(seed, i), and
// workers take contiguous index ranges merged in worker order, so the
// pool's contents are a pure function of (graph, seeds, k, mode, seed,
// total): bit-identical across worker counts and across staged versus
// one-shot growth. That invariance is what lets Repair regenerate
// exactly the sketches a graph delta touched and prove the result equal
// to a cold rebuild.
//
// Workers generate concurrently through shard.Build into per-shard
// arenas — including each boostable graph's initial candidate set,
// computed while the graph is cache-hot — and the shards are merged in
// deterministic worker order.
//
// On any error — ctx canceled, even after the last stride poll, an
// injected fault, or a worker panic (returned as *panicsafe.Error) — NO
// shard is merged and the pool is left exactly as it was, so a retried
// call regenerates the same sketches from the same stateless per-index
// streams and the final pool is bit-identical to one built without
// interruption.
func (p *Pool) ExtendContext(ctx context.Context, target int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	need := target - p.total
	if need <= 0 {
		return nil
	}
	start := p.total
	shards := p.shards[:min(need, p.workers)]
	for _, sh := range shards {
		sh.reset()
	}
	err := shard.Build(ctx, need, p.workers, func(w, i int) {
		r, gen, sh := p.streams[w], p.gens[w], shards[w]
		r.ReseedStream(p.seed, uint64(start+i))
		sh.record(gen.GenerateInto(&sh.arena, r), gen.lastExpanded)
	})
	if err != nil {
		return err
	}

	// Deterministic merge in worker order (= global sketch-index order).
	from := p.arena.numGraphs()
	for _, sh := range shards {
		p.total += sh.total
		p.numActivated += sh.activated
		p.numHopeless += sh.hopeless
		p.numBoostable += sh.boostable
		p.sumRaw += sh.sumRaw
		p.sumCompressed += sh.sumCompressed
		p.sumExamined += sh.sumExamined
		base := p.arena.numGraphs()
		p.arena.appendArena(&sh.arena)
		p.log.appendLog(&sh.log)
		for i := base; i < p.arena.numGraphs(); i++ {
			crit := p.arena.critAt(i)
			p.sumCritical += int64(len(crit))
			p.cov.AddSortedSet(crit)
		}
	}
	if p.sel != nil {
		p.sel.extend(&p.arena, from)
	}
	p.generation++
	return nil
}

// SelectAndCover greedily maximizes μ̂ coverage (critical-node max
// coverage) with seeds banned; it implements imm.Sketcher.
func (p *Pool) SelectAndCover(k int) ([]int32, int) {
	return p.cov.Select(k, p.seedMask, nil)
}

// CoverageOf returns how many boostable PRR-graphs have a critical node
// among items (the validation hook for imm.RunAdaptive).
func (p *Pool) CoverageOf(items []int32) int {
	return p.cov.CoverageOf(items)
}

var (
	_ imm.Sketcher            = (*Pool)(nil)
	_ imm.ValidatableSketcher = (*Pool)(nil)
)

// scale converts a covered-sketch count into an estimate of a boost:
// n * covered / total.
func (p *Pool) scale(covered int) float64 {
	if p.total == 0 {
		return 0
	}
	return float64(p.g.N()) * float64(covered) / float64(p.total)
}

// EstimateMu returns μ̂(B) = n/|R| * Σ I(B ∩ C_R ≠ ∅).
func (p *Pool) EstimateMu(b []int32) float64 {
	return p.scale(p.cov.CoverageOf(b))
}

// EstimateDelta returns Δ̂(B) = n/|R| * Σ f_R(B). ModeFull only.
func (p *Pool) EstimateDelta(b []int32) (float64, error) {
	if p.mode != ModeFull {
		return 0, fmt.Errorf("prr: EstimateDelta requires ModeFull")
	}
	mask := make([]bool, p.g.N())
	for _, v := range b {
		if v < 0 || int(v) >= p.g.N() {
			return 0, fmt.Errorf("prr: boost node %d out of range", v)
		}
		mask[v] = true
	}
	counts := make([]int, p.workers)
	shard.Each(p.arena.numGraphs(), p.workers, func(w, lo, hi int) {
		s := getScratch()
		defer putScratch(s)
		c := 0
		for i := lo; i < hi; i++ {
			R := p.arena.at(i)
			if R.Eval(mask, s) {
				c++
			}
		}
		counts[w] = c
	})
	covered := 0
	for _, c := range counts {
		covered += c
	}
	return p.scale(covered), nil
}

// Generation identifies the pool's contents: it increments on every
// Extend call (estimates and selections are pure functions of the
// contents, so results may be cached keyed by Generation).
func (p *Pool) Generation() uint64 { return p.generation }

// MemoryEstimate returns the pool's resident bytes: the graph arena
// and sketch log, the retained per-worker shard arenas and generators
// (kept for allocation-free re-extension and repair — their capacity
// is real memory even while idle), the coverage index, the selection
// index, and the scratch kept between queries and repairs (the idle
// selection scratch on the free lists, the touched mask, the masks).
// Counted from backing-array capacities in O(workers), so the engine's
// byte-based eviction tracks real memory instead of a per-edge
// approximation.
func (p *Pool) MemoryEstimate() int64 {
	bytes := p.arena.bytes() + p.log.bytes()
	for w, sh := range p.shards {
		bytes += sh.arena.bytes() + sh.log.bytes() + p.gens[w].bytes()
	}
	bytes += p.cov.MemoryBytes()
	if p.sel != nil {
		bytes += p.sel.bytes()
	}
	bytes += p.deltaFree.Bytes()
	bytes += int64(cap(p.touched) + cap(p.seedMask) + cap(p.zeroMask))
	bytes += int64(cap(p.seeds)) * 4
	bytes += int64(cap(p.streams)+cap(p.gens)+cap(p.shards)) * int64(unsafe.Sizeof(p.gens[0]))
	return bytes
}

// PoolStats summarizes the pool for the compression and memory tables.
type PoolStats struct {
	Total        int
	Activated    int
	Hopeless     int
	Boostable    int
	AvgRawEdges  float64 // average uncompressed edges per boostable graph
	AvgCompEdges float64 // average compressed edges per boostable graph
	// CompressionRatio = AvgRawEdges / AvgCompEdges (Tables 2-3).
	CompressionRatio float64
	AvgCriticalSize  float64
	AvgExamined      float64 // average edges examined per generated graph
}

// Stats returns current pool statistics.
func (p *Pool) Stats() PoolStats {
	st := PoolStats{
		Total:     p.total,
		Activated: p.numActivated,
		Hopeless:  p.numHopeless,
		Boostable: p.numBoostable,
	}
	if p.numBoostable > 0 {
		st.AvgRawEdges = float64(p.sumRaw) / float64(p.numBoostable)
		st.AvgCompEdges = float64(p.sumCompressed) / float64(p.numBoostable)
		st.AvgCriticalSize = float64(p.sumCritical) / float64(p.numBoostable)
		if st.AvgCompEdges > 0 {
			st.CompressionRatio = st.AvgRawEdges / st.AvgCompEdges
		}
	}
	if p.total > 0 {
		st.AvgExamined = float64(p.sumExamined) / float64(p.total)
	}
	return st
}
