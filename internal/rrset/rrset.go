// Package rrset implements Reverse-Reachable set sampling and IMM-based
// seed selection for classic influence maximization under the
// Independent Cascade model.
//
// An RR-set for a uniformly random root r is the random set of nodes
// that reach r in a possible world where each edge (u,v) is live with
// probability p(u,v). For any seed set S,
// n * Pr[RR ∩ S ≠ ∅] equals the expected influence of S (Borgs et al.),
// which is what makes greedy max coverage over RR-sets work.
//
// kboost uses this package to pick the "50 influential seeds" of the
// paper's experiments (Table 1) and to implement the MoreSeeds baseline.
package rrset

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/imm"
	"github.com/kboost/kboost/internal/maxcover"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/shard"
)

// Pool is a growable collection of RR-sets implementing imm.Sketcher.
type Pool struct {
	g       *graph.Graph
	cov     *maxcover.Coverage
	banned  []bool  // nodes that may not be selected
	pre     []int32 // nodes whose coverage is considered "already achieved"
	workers int
	seed    uint64
	scratch []*walker
}

// walker holds per-worker BFS state, the stream the worker reseeds for
// each set, and the worker's output for one Extend: its RR-sets back
// to back in items, set i ending at ends[i].
type walker struct {
	mark  []int32
	epoch int32 // kboost:epoch
	r     rng.Source
	items []int32
	ends  []int32
}

func newWalker(n int) *walker { return &walker{mark: make([]int32, n)} }

// nextEpoch advances the visit stamp, clearing mark when the int32
// epoch would wrap so a stamp from 2³¹ sets ago can never read as
// current.
// kboost:epoch-helper
func (wk *walker) nextEpoch() int32 {
	if wk.epoch == math.MaxInt32 {
		clear(wk.mark)
		wk.epoch = 0
	}
	wk.epoch++
	return wk.epoch
}

// NewPool returns an empty Pool. workers <= 0 means GOMAXPROCS.
func NewPool(g *graph.Graph, seed uint64, workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		g:       g,
		cov:     maxcover.New(g.N()),
		workers: workers,
		seed:    seed,
	}
	for w := 0; w < workers; w++ {
		p.scratch = append(p.scratch, newWalker(g.N()))
	}
	return p
}

// Ban marks nodes as unselectable (e.g. existing seeds).
func (p *Pool) Ban(nodes []int32) {
	if p.banned == nil {
		p.banned = make([]bool, p.g.N())
	}
	for _, v := range nodes {
		p.banned[v] = true
	}
}

// PreCover marks nodes as already chosen: sketches they cover do not
// count toward gains or coverage (marginal-influence mode, used by the
// MoreSeeds baseline).
func (p *Pool) PreCover(nodes []int32) {
	p.pre = append(p.pre, nodes...)
}

// Size returns the number of RR-sets generated.
func (p *Pool) Size() int { return p.cov.NumSets() }

// Set returns the deduplicated items of the RR-set with index j; the
// result aliases the pool's storage (kboost:aliased-view).
func (p *Pool) Set(j int) []int32 { return p.cov.Set(j) }

// ExtendContext grows the pool to at least target RR-sets through
// shard.Build. The set with global index j draws its root and its
// edges from the stream rng.StreamSeed(seed, j), and the workers'
// batches merge in index order, so the pool's sets do not depend on
// the worker count or on how its growth was split across calls. On
// any error no batch is merged and the error is returned: the pool is
// left as it was.
func (p *Pool) ExtendContext(ctx context.Context, target int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	need := target - p.Size()
	if need <= 0 {
		return nil
	}
	for _, wk := range p.scratch {
		wk.items, wk.ends = wk.items[:0], wk.ends[:0]
	}
	base := p.Size()
	err := shard.Build(ctx, need, p.workers, func(w, i int) {
		wk := p.scratch[w]
		wk.r.ReseedStream(p.seed, uint64(base+i))
		wk.items = generate(p.g, int32(wk.r.Intn(p.g.N())), wk, wk.items, &wk.r)
		wk.ends = append(wk.ends, int32(len(wk.items)))
	})
	if err != nil {
		return err
	}
	for _, wk := range p.scratch {
		start := int32(0)
		for _, end := range wk.ends {
			p.cov.AddSet(wk.items[start:end])
			start = end
		}
	}
	return nil
}

// SelectAndCover greedily picks up to k nodes maximizing RR-set coverage.
func (p *Pool) SelectAndCover(k int) ([]int32, int) {
	return p.cov.Select(k, p.banned, p.pre)
}

// Generate returns one RR-set rooted at root using r for randomness.
func Generate(g *graph.Graph, root int32, r *rng.Source) []int32 {
	return generate(g, root, newWalker(g.N()), nil, r)
}

// generate appends the RR-set rooted at root to dst and returns the
// extended slice; the appended items double as the BFS queue, so the
// set is emitted without a copy.
//
// Draw order: nodes are expanded in BFS order (the root first) and each
// node's in-edges in CSR order. An edge from a node already in the set
// draws nothing; any other edge makes one r.Bernoulli call with p,
// which draws nothing when p is 0 or 1.
func generate(g *graph.Graph, root int32, wk *walker, dst []int32, r *rng.Source) []int32 {
	epoch := wk.nextEpoch()
	mark := wk.mark
	mark[root] = epoch
	start := len(dst)
	dst = append(dst, root)
	s0, s1, s2, s3 := r.State()
	for qi := start; qi < len(dst); qi++ {
		v := dst[qi]
		from := g.InFrom(v)
		prob := g.InP(v)
		for i, u := range from {
			if mark[u] == epoch {
				continue
			}
			p := prob[i]
			if p <= 0 {
				continue
			}
			if p < 1 {
				var x uint64
				x, s0, s1, s2, s3 = rng.Step(s0, s1, s2, s3)
				if rng.Unit(x) >= p {
					continue
				}
			}
			mark[u] = epoch
			dst = append(dst, u)
		}
	}
	r.SetState(s0, s1, s2, s3)
	return dst
}

// CoverageOf returns how many RR-sets the items cover (the validation
// hook for imm.RunAdaptive).
func (p *Pool) CoverageOf(items []int32) int {
	return p.cov.CoverageOf(items)
}

var (
	_ imm.Sketcher            = (*Pool)(nil)
	_ imm.ValidatableSketcher = (*Pool)(nil)
)

// Options configures seed selection.
type Options struct {
	Epsilon    float64 // IMM slack (default 0.5)
	Ell        float64 // failure exponent (default 1)
	Seed       uint64  // RNG seed (default 1)
	Workers    int     // parallelism (default GOMAXPROCS)
	MaxSamples int     // optional cap on RR-sets
	// Adaptive uses the SSA-style stop-and-stare controller instead of
	// IMM sample sizing (fewer samples, no formal certificate).
	Adaptive bool
}

func (o Options) withDefaults() Options {
	if o.Epsilon <= 0 {
		o.Epsilon = 0.5
	}
	if o.Ell <= 0 {
		o.Ell = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Result reports a seed selection.
type Result struct {
	Seeds        []int32
	EstInfluence float64 // n * coverage / samples
	Samples      int
}

// SelectSeedsContext runs IMM influence maximization and returns k
// seeds with a (1-1/e-ε) approximation guarantee (with probability
// 1-1/n^ℓ). ctx is threaded through the sampling loop, IMM and adaptive
// alike.
func SelectSeedsContext(ctx context.Context, g *graph.Graph, k int, opt Options) (Result, error) {
	opt = opt.withDefaults()
	if k < 1 || k > g.N() {
		return Result{}, fmt.Errorf("rrset: k=%d out of range [1,%d]", k, g.N())
	}
	params := imm.Params{
		N: g.N(), K: k,
		Epsilon: opt.Epsilon, Ell: opt.Ell,
		MaxSamples: opt.MaxSamples,
	}
	var pool *Pool
	if opt.Adaptive {
		trained, _, err := imm.RunAdaptive(ctx, func(s uint64) (imm.ValidatableSketcher, error) {
			return NewPool(g, opt.Seed*0x9e3779b97f4a7c15+s, opt.Workers), nil
		}, params)
		if err != nil {
			return Result{}, err
		}
		pool = trained.(*Pool)
	} else {
		pool = NewPool(g, opt.Seed, opt.Workers)
		if _, err := imm.RunContext(ctx, pool, params); err != nil {
			return Result{}, err
		}
	}
	seeds, covered := pool.SelectAndCover(k)
	seeds = padToK(seeds, k, g.N(), nil)
	return Result{
		Seeds:        seeds,
		EstInfluence: float64(g.N()) * float64(covered) / float64(pool.Size()),
		Samples:      pool.Size(),
	}, nil
}

// SelectMarginalSeedsContext greedily selects k additional seeds
// maximizing the marginal influence over the fixed set have. This is
// the paper's MoreSeeds baseline: the IMM machinery re-targeted at
// marginal coverage. ctx is threaded through the IMM sampling loop.
func SelectMarginalSeedsContext(ctx context.Context, g *graph.Graph, have []int32, k int, opt Options) (Result, error) {
	opt = opt.withDefaults()
	if k < 1 || k > g.N() {
		return Result{}, fmt.Errorf("rrset: k=%d out of range [1,%d]", k, g.N())
	}
	pool := NewPool(g, opt.Seed, opt.Workers)
	pool.Ban(have)
	pool.PreCover(have)
	_, err := imm.RunContext(ctx, pool, imm.Params{
		N: g.N(), K: k,
		Epsilon: opt.Epsilon, Ell: opt.Ell,
		MaxSamples: opt.MaxSamples,
	})
	if err != nil {
		return Result{}, err
	}
	chosen, covered := pool.SelectAndCover(k)
	banned := make([]bool, g.N())
	for _, v := range have {
		banned[v] = true
	}
	chosen = padToK(chosen, k, g.N(), banned)
	return Result{
		Seeds:        chosen,
		EstInfluence: float64(g.N()) * float64(covered) / float64(pool.Size()),
		Samples:      pool.Size(),
	}, nil
}

// padToK fills chosen up to k nodes with the lowest-id nodes that are
// neither banned nor already chosen. Greedy selection stops early when
// marginal coverage hits zero; callers that need exactly k nodes (the
// paper's experiments fix |B|=k) use this.
func padToK(chosen []int32, k, n int, banned []bool) []int32 {
	if len(chosen) >= k {
		return chosen[:k]
	}
	in := make(map[int32]struct{}, len(chosen))
	for _, v := range chosen {
		in[v] = struct{}{}
	}
	for v := int32(0); int(v) < n && len(chosen) < k; v++ {
		if banned != nil && banned[v] {
			continue
		}
		if _, dup := in[v]; dup {
			continue
		}
		chosen = append(chosen, v)
	}
	return chosen
}
