// Package core implements the paper's primary contribution: the
// PRR-Boost and PRR-Boost-LB approximation algorithms for the
// k-boosting problem on general graphs (Algorithm 2, Section V).
//
// Both algorithms share the same skeleton:
//
//  1. Run the IMM sampling machinery over random PRR-graphs to maximize
//     the submodular lower bound μ of the boost objective, with the
//     inflated failure exponent ℓ' = ℓ(1 + log3/log n) so that three
//     union-bounded events jointly succeed.
//  2. B_μ  := greedy max coverage over critical-node sets (maximizes μ̂).
//  3. B_Δ  := greedy over the true (non-submodular) objective Δ̂,
//     re-using the same PRR-graph pool (PRR-Boost only).
//  4. Return the better of the two under Δ̂ (the "sandwich" choice).
//
// The returned set is a (1−1/e−ε)·μ(B*)/Δ_S(B*)-approximation with
// probability at least 1−n^−ℓ (Theorem 2).
package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/imm"
	"github.com/kboost/kboost/internal/prr"
)

// Options configures PRR-Boost / PRR-Boost-LB.
type Options struct {
	K          int     // number of nodes to boost (required, >= 1)
	Epsilon    float64 // approximation slack ε (default 0.5, the paper's setting)
	Ell        float64 // failure exponent ℓ (default 1)
	Seed       uint64  // RNG seed (default 1)
	Workers    int     // parallelism (default GOMAXPROCS)
	MaxSamples int     // optional cap on generated PRR-graphs (0 = theory-driven)
	// Adaptive switches the sampling phase from IMM (RunContext) to the
	// SSA-style stop-and-stare controller (imm.RunAdaptive): usually far
	// fewer samples, no formal certificate. See DESIGN.md §4.2.
	Adaptive bool
	// Candidates, when non-nil, restricts the Δ̂ greedy (ModeFull
	// selection) to the listed nodes — a pre-filter shortlist, typically
	// from a cheap closed-form ranking. The lower-bound greedy B_μ and
	// the sandwich comparison are unrestricted, so the returned set is
	// never worse than B_μ; only the Δ̂-greedy leg is narrowed. Nil (the
	// default) keeps the exact algorithm.
	Candidates []int32
}

func (o Options) WithDefaults() Options {
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

// Result reports a boosting run.
type Result struct {
	// BoostSet is the returned boost set B_sa (exactly K nodes unless the
	// graph has fewer eligible nodes).
	BoostSet []int32
	// EstBoost is the pool estimate of the boost of BoostSet: Δ̂ for
	// PRR-Boost, μ̂ (a lower bound) for PRR-Boost-LB.
	EstBoost float64
	// BoostSetMu / EstMu are the lower-bound-greedy solution B_μ and its
	// μ̂ estimate.
	BoostSetMu []int32
	EstMu      float64
	// BoostSetDelta / EstDelta are the Δ̂-greedy solution and estimate
	// (PRR-Boost only).
	BoostSetDelta []int32
	EstDelta      float64
	// Samples is the total number of PRR-graphs generated.
	Samples int
	// Pool statistics (compression ratios etc.) for Tables 2-3.
	PoolStats prr.PoolStats
	// Phase timings.
	SamplingTime  time.Duration
	SelectionTime time.Duration
}

// Validate checks a (graph, seeds, opt) boosting query without running
// it, so callers with caches (internal/engine) can reject bad requests
// before mutating any state.
func Validate(g *graph.Graph, seeds []int32, opt Options) error {
	return validate(g, seeds, opt.WithDefaults())
}

func validate(g *graph.Graph, seeds []int32, opt Options) error {
	if g.N() < 2 {
		return fmt.Errorf("core: graph must have at least 2 nodes, has %d", g.N())
	}
	if len(seeds) == 0 {
		return fmt.Errorf("core: seed set is empty")
	}
	seen := make(map[int32]struct{}, len(seeds))
	for _, s := range seeds {
		if s < 0 || int(s) >= g.N() {
			return fmt.Errorf("core: seed %d out of range [0,%d)", s, g.N())
		}
		if _, dup := seen[s]; dup {
			return fmt.Errorf("core: duplicate seed %d", s)
		}
		seen[s] = struct{}{}
	}
	if opt.K < 1 {
		return fmt.Errorf("core: K=%d must be >= 1", opt.K)
	}
	if opt.K > g.N()-len(seeds) {
		return fmt.Errorf("core: K=%d exceeds the %d non-seed nodes", opt.K, g.N()-len(seeds))
	}
	return nil
}

// PRRBoost runs Algorithm 2 and returns the sandwich solution B_sa.
func PRRBoost(g *graph.Graph, seeds []int32, opt Options) (*Result, error) {
	return boostOnce(g, seeds, opt, prr.ModeFull)
}

// PRRBoostLB runs the lower-bound-only variant: it returns B_μ directly,
// skipping Δ̂ greedy and generating leaner PRR-graphs (critical nodes
// only). Same approximation factor as PRR-Boost, lower cost (Section
// V-C).
func PRRBoostLB(g *graph.Graph, seeds []int32, opt Options) (*Result, error) {
	return boostOnce(g, seeds, opt, prr.ModeLB)
}

// boostOnce is the one-shot path: build a fresh pool, select, discard.
func boostOnce(g *graph.Graph, seeds []int32, opt Options, mode prr.Mode) (*Result, error) {
	opt = opt.WithDefaults()
	if err := validate(g, seeds, opt); err != nil {
		return nil, err
	}
	t0 := time.Now()
	pool, err := buildPool(context.Background(), g, seeds, opt, mode)
	if err != nil {
		return nil, err
	}
	sampling := time.Since(t0)
	res, err := BoostFromPoolContext(context.Background(), pool, opt)
	if err != nil {
		return nil, err
	}
	res.SamplingTime = sampling
	return res, nil
}

// BuildPoolContext runs the sampling phase on a fresh pool and returns
// it sized for (opt.K, opt.Epsilon, opt.Ell). It is the exported half
// of the PRRBoost split: long-lived callers (internal/engine) keep the
// returned pool and amortize it across queries with GrowPoolContext
// and BoostFromPoolContext. Cancellation is threaded through the
// sampling loop, IMM and adaptive alike: a canceled build aborts within
// a few sketches, merges nothing, and a retry regenerates a
// bit-identical pool.
func BuildPoolContext(ctx context.Context, g *graph.Graph, seeds []int32, opt Options, mode prr.Mode) (*prr.Pool, error) {
	opt = opt.WithDefaults()
	if err := validate(g, seeds, opt); err != nil {
		return nil, err
	}
	return buildPool(ctx, g, seeds, opt, mode)
}

// GrowPoolContext re-runs the IMM sizing against an existing pool,
// extending it in place when the requested (K, Epsilon, Ell,
// MaxSamples) demand more samples than the pool holds. Existing
// PRR-graphs are never regenerated; the returned count is the number of
// newly generated ones (zero when the pool is already large enough).
// opt.K must not exceed the pool's generation budget pool.K(). An
// aborted grow leaves the pool exactly as it was (completed IMM rounds
// are kept; a partial Extend never merges).
//
// A pool already holding opt.MaxSamples (> 0) samples returns at once,
// after the same validation, with (0, ctx.Err()): every Extend of the
// IMM run is capped at MaxSamples, so it could not add a sample, and
// its coverage rounds only read the pool.
func GrowPoolContext(ctx context.Context, pool *prr.Pool, opt Options) (added int, err error) {
	opt = opt.WithDefaults()
	if err := validate(pool.Graph(), pool.Seeds(), opt); err != nil {
		return 0, err
	}
	if opt.K > pool.K() {
		return 0, fmt.Errorf("core: pool was generated for k<=%d, cannot serve k=%d", pool.K(), opt.K)
	}
	before := pool.Size()
	params := imm.Params{
		N:          pool.Graph().N(),
		K:          opt.K,
		Epsilon:    opt.Epsilon,
		Ell:        imm.EllForSandwich(opt.Ell, pool.Graph().N()),
		MaxSamples: opt.MaxSamples,
	}
	if opt.MaxSamples > 0 && before >= opt.MaxSamples {
		if err := params.Validate(); err != nil {
			return 0, err
		}
		return 0, ctx.Err()
	}
	if _, err := imm.RunContext(ctx, pool, params); err != nil {
		return 0, err
	}
	return pool.Size() - before, nil
}

// BoostFromPoolContext runs the selection phase of Algorithm 2 on an
// existing pool: greedy max coverage of the critical-node sets (B_μ),
// and — for ModeFull pools — the Δ̂ greedy (restricted to
// opt.Candidates when set) plus the sandwich choice between the two.
// The pool is not grown; callers wanting the full algorithm combine
// BuildPoolContext/GrowPoolContext with this. SamplingTime is left
// zero. The CELF selection loops poll ctx once per pick, so a canceled
// warm query returns within one re-evaluation round; the pool is
// read-only here, so cancellation cannot corrupt it.
func BoostFromPoolContext(ctx context.Context, pool *prr.Pool, opt Options) (*Result, error) {
	opt = opt.WithDefaults()
	g, seeds := pool.Graph(), pool.Seeds()
	if err := validate(g, seeds, opt); err != nil {
		return nil, err
	}
	if opt.K > pool.K() {
		return nil, fmt.Errorf("core: pool was generated for k<=%d, cannot serve k=%d", pool.K(), opt.K)
	}
	res := &Result{Samples: pool.Size(), PoolStats: pool.Stats()}
	t1 := time.Now()
	bMu, covMu := pool.SelectAndCover(opt.K)
	bMu = padBoostSet(bMu, opt.K, g, seeds)
	res.BoostSetMu = bMu
	res.EstMu = scale(g, covMu, pool.Size())

	if pool.Mode() != prr.ModeFull {
		res.BoostSet = bMu
		res.EstBoost = res.EstMu
		res.SelectionTime = time.Since(t1)
		return res, nil
	}

	bDelta, covDelta, err := pool.SelectDeltaAmongContext(ctx, opt.K, opt.Candidates)
	if err != nil {
		return nil, err
	}
	bDelta = padBoostSet(bDelta, opt.K, g, seeds)
	res.BoostSetDelta = bDelta
	res.EstDelta = scale(g, covDelta, pool.Size())

	// Sandwich choice: compare the two candidates under Δ̂.
	deltaOfMu, err := pool.EstimateDelta(bMu)
	if err != nil {
		return nil, err
	}
	if deltaOfMu >= res.EstDelta {
		res.BoostSet = bMu
		res.EstBoost = deltaOfMu
	} else {
		res.BoostSet = bDelta
		res.EstBoost = res.EstDelta
	}
	res.SelectionTime = time.Since(t1)
	return res, nil
}

// buildPool runs the sampling phase — IMM by default, the SSA-style
// adaptive controller when opt.Adaptive — and returns the sized pool.
func buildPool(ctx context.Context, g *graph.Graph, seeds []int32, opt Options, mode prr.Mode) (*prr.Pool, error) {
	params := imm.Params{
		N:          g.N(),
		K:          opt.K,
		Epsilon:    opt.Epsilon,
		Ell:        imm.EllForSandwich(opt.Ell, g.N()),
		MaxSamples: opt.MaxSamples,
	}
	if opt.Adaptive {
		trained, _, err := imm.RunAdaptive(ctx, func(s uint64) (imm.ValidatableSketcher, error) {
			return prr.NewPool(g, seeds, opt.K, mode, opt.Seed*0x9e3779b97f4a7c15+s, opt.Workers)
		}, params)
		if err != nil {
			return nil, err
		}
		return trained.(*prr.Pool), nil
	}
	pool, err := prr.NewPool(g, seeds, opt.K, mode, opt.Seed, opt.Workers)
	if err != nil {
		return nil, err
	}
	if _, err := imm.RunContext(ctx, pool, params); err != nil {
		return nil, err
	}
	return pool, nil
}

func scale(g *graph.Graph, covered, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(g.N()) * float64(covered) / float64(total)
}

// padBoostSet extends chosen to exactly k nodes using the lowest-id
// non-seed nodes (the experiments fix |B| = k; padding nodes have zero
// marginal estimate and never hurt).
func padBoostSet(chosen []int32, k int, g *graph.Graph, seeds []int32) []int32 {
	if len(chosen) >= k {
		return chosen[:k]
	}
	bad := make(map[int32]struct{}, len(chosen)+len(seeds))
	for _, v := range chosen {
		bad[v] = struct{}{}
	}
	for _, s := range seeds {
		bad[s] = struct{}{}
	}
	out := append([]int32(nil), chosen...)
	for v := int32(0); int(v) < g.N() && len(out) < k; v++ {
		if _, skip := bad[v]; skip {
			continue
		}
		out = append(out, v)
	}
	return out
}

// SandwichRatio estimates μ̂(B)/Δ̂(B) for a given boost set using a
// fresh PRR-graph pool of the given size. The paper uses this ratio
// (Figures 7, 9, 12) to report the data-dependent approximation factor.
func SandwichRatio(g *graph.Graph, seeds, boost []int32, samples int, opt Options) (mu, delta, ratio float64, err error) {
	opt = opt.WithDefaults()
	k := opt.K
	if k < len(boost) {
		k = len(boost)
	}
	if k < 1 {
		return 0, 0, 0, fmt.Errorf("core: empty boost set")
	}
	pool, err := prr.NewPool(g, seeds, k, prr.ModeFull, opt.Seed, opt.Workers)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := pool.ExtendContext(context.Background(), samples); err != nil {
		return 0, 0, 0, err
	}
	mu = pool.EstimateMu(boost)
	delta, err = pool.EstimateDelta(boost)
	if err != nil {
		return 0, 0, 0, err
	}
	if delta > 0 {
		ratio = mu / delta
	}
	return mu, delta, ratio, nil
}

// SortedCopy returns a sorted copy of nodes; a convenience for stable
// output in examples and the experiment harness.
func SortedCopy(nodes []int32) []int32 {
	out := append([]int32(nil), nodes...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
