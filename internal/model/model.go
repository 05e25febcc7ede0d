// Package model defines the pluggable diffusion-model interface the
// engine's pool serving path is written against. A Model is a factory
// for pre-sampled possible-world pools over a fixed (graph, seed set):
// sample worlds (NewPool + Pool.ExtendContext), evaluate a boost set
// against the cached worlds (Estimate: one pass over the affected
// profiles yields both σ̂ and the coupled Δ̂; EstimateSpread and
// EstimateBoost return one each), select a boost set greedily
// (GreedyBoostContext), and report resident bytes (MemoryEstimate) so
// the engine's byte-based LRU can treat every model family fairly.
//
// The engine's snapshot/LRU/result-cache/repair/tier plumbing is
// written once against these interfaces, and the pools themselves are
// written once too: the profile-pool kernel (model/profile) owns
// sampling, storage, the frontier index, estimates, the lazy greedy
// and the tier-1 sample driver. A new model is therefore one
// profile.Cascade implementation — the dynamics of a single sampled
// world: its base-world capture, its incremental delta (with each
// candidate's gain for the greedy) and its full simulation — plus a
// registry entry in New. Three ship here: the boosted Linear Threshold
// model (internal/lt, which adds in-place repair), boosted SIR
// (model/sir) and
// k-threshold complex contagion (model/kthresh). The IC/PRR family
// stays outside this contract — PRR pools are k-dependent and carry
// approximation guarantees (internal/core) it cannot express — but the
// engine serves both families through one acquire path.
//
// Every implementation keeps the repo's hardening contract: pool
// contents are a pure function of (seed, graph, seed set) independent
// of worker count, estimates are bit-exact across worker counts, and
// the incremental paths are property-tested bit-identical to the naive
// full-resimulation references in model/profile/profiletest.
package model

import (
	"context"
	"fmt"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/lt"
	"github.com/kboost/kboost/internal/model/kthresh"
	"github.com/kboost/kboost/internal/model/profile"
	"github.com/kboost/kboost/internal/model/sir"
)

// Pool is one model's growable possible-world pool for a fixed
// (graph, seed set). Profiles are independent of the boost budget k, so
// one pool serves every query against its seed set; only a larger
// simulation budget grows it (ExtendContext, in place). ExtendContext
// must be externally serialized against everything else (the engine's
// entry lock does this); all other methods only read the pool and may
// run concurrently with each other.
type Pool interface {
	// NumProfiles reports the current simulation count.
	NumProfiles() int
	// Generation identifies the pool contents: it increments on every
	// ExtendContext call that added profiles, so callers may cache
	// results keyed by (generation, query) and invalidate on change.
	Generation() uint64
	// MemoryEstimate is the pool's resident bytes — array capacities
	// times element sizes, the contract the engine's byte eviction
	// relies on.
	MemoryEstimate() int64
	// Norms returns the model's per-node tier-0 normalizers, or nil
	// when the model ranks candidates on raw edge probabilities. The
	// slice aliases pool state and must not be modified.
	// kboost:aliased-view
	Norms() []float64
	// Estimate returns the pooled estimate of the boosted spread σ̂(B)
	// and the coupled Δ̂_S(B) = σ̂(B) − σ̂(∅) over the same worlds, both
	// from one evaluation pass over the affected profiles. Δ̂ is
	// differenced as integers, so it is exactly zero for an ineffective
	// boost set. EstimateSpread and EstimateBoost return one value
	// each from the same pass.
	Estimate(boost []int32) (spread, delta float64, err error)
	EstimateSpread(boost []int32) (float64, error)
	EstimateBoost(boost []int32) (float64, error)
	// ExtendContext grows the pool to at least target profiles;
	// existing profiles and their cached state are untouched. It
	// cancels cooperatively and contains shard-worker panics: on error
	// (ctx canceled, injected fault, contained panic) the pool must be
	// left exactly as it was — nothing merged, RNG state restored — so
	// a retried identical call produces a bit-identical pool.
	ExtendContext(ctx context.Context, target int) error
	// GreedyBoostContext greedily selects up to k boost nodes over the
	// model's default candidate ranking capped at candCap (< k picks
	// the model default); GreedyBoostAmongContext restricts the greedy
	// to an explicit candidate list (out-of-range ids and seeds are
	// ignored). Both return the chosen nodes in pick order and the
	// pooled Δ̂ of the chosen set, and poll ctx once per evaluation pass;
	// the pool is read-only during selection so cancellation cannot
	// corrupt it.
	GreedyBoostContext(ctx context.Context, k, candCap int) ([]int32, float64, error)
	GreedyBoostAmongContext(ctx context.Context, k int, cands []int32) ([]int32, float64, error)
}

// Repairer is optionally implemented by pools that can migrate to a
// patched graph in place (resampling only the profiles an edge delta
// touched) instead of being dropped for a cold rebuild. The signature
// matches lt.Pool.Repair; pools that do not implement it fall back to
// rebuild on every patch.
type Repairer interface {
	Repair(g2 *graph.Graph, dirtyOut, dirtyIn []bool, maxFrac float64) (touched int, ok bool, err error)
}

// Model is one pluggable diffusion model, resolved from a request's
// (mode, params) pair. Implementations are stateless with respect to
// the graph — the same Model value serves every snapshot — so the
// engine resolves one per request and bakes Key into its cache keys.
type Model interface {
	// Name is the canonical mode string ("lt", "sir", "kthresh").
	Name() string
	// Key is the canonical (mode, params) tag baked into pool and
	// calibration cache keys, e.g. "sir:r=0.25" — distinct parameter
	// values must never share sampled worlds.
	Key() string
	// NewPool creates an empty pool for (g, seeds). seed determines
	// every profile the pool will ever contain; workers <= 0 means
	// GOMAXPROCS. Pool contents must not depend on workers.
	NewPool(g *graph.Graph, seeds []int32, seed uint64, workers int) (Pool, error)
	// EstimateSamples is the engine's tier-1 estimator: sims pool-free
	// replicates returning per-simulation boosted spread and coupled
	// delta samples, bit-identical for every worker count (each
	// simulation is seeded from its own stateless stream — the
	// diffusion.EstimateSamples pattern).
	EstimateSamples(g *graph.Graph, seeds, boost []int32, sims int, seed uint64, workers int) (spread, delta []float64, err error)
	// Tier0Norms reports whether the model can answer the closed-form
	// two-hop tier-0 estimator, and with which per-node normalizers
	// (nil norms = raw edge probabilities). ok == false declines tier 0
	// entirely: the model's transmission semantics are inexpressible as
	// per-node normalized edge probabilities, and the engine's tier
	// floor becomes tier 1.
	Tier0Norms(g *graph.Graph) (norm []float64, ok bool)
	// CandidateCap resolves a greedy candidate-pool cap against the
	// model's default (candCap < k picks it).
	CandidateCap(k, candCap int) int
}

// Params carries the per-model knobs a request may set. Zero values
// select each model's default; setting a knob for a model it does not
// apply to is rejected by New, so mistyped requests cannot silently
// fragment the pool cache.
type Params struct {
	// Recovery is mode "sir"'s per-round recovery probability, in
	// (0, 1]. 0 selects the 0.5 default.
	Recovery float64
	// Threshold is mode "kthresh"'s activation threshold (a node
	// activates once that many of its live in-edges originate at active
	// nodes), >= 1. 0 selects the default of 2.
	Threshold int
}

// Names lists the registered pluggable model names, sorted.
func Names() []string { return []string{"kthresh", "lt", "sir"} }

// New resolves a (mode, params) pair to a Model. Unknown names are the
// caller's to reject first (the engine owns the unified unknown-mode
// error); New returns an error for params that are out of range or set
// for a model they do not apply to.
func New(name string, p Params) (Model, error) {
	if p.Recovery != 0 && name != "sir" {
		return nil, fmt.Errorf("model: recovery only applies to mode \"sir\" (got mode %q)", name)
	}
	if p.Threshold != 0 && name != "kthresh" {
		return nil, fmt.Errorf("model: threshold only applies to mode \"kthresh\" (got mode %q)", name)
	}
	if p.Recovery < 0 || p.Recovery > 1 || p.Recovery != p.Recovery {
		return nil, fmt.Errorf("model: recovery %g out of range (0, 1]", p.Recovery)
	}
	if p.Threshold < 0 {
		return nil, fmt.Errorf("model: threshold %d must be >= 1", p.Threshold)
	}
	switch name {
	case "lt":
		return ltModel{}, nil
	case "sir":
		return sirModel{m: sir.New(p.Recovery)}, nil
	case "kthresh":
		return kthreshModel{m: kthresh.New(p.Threshold)}, nil
	default:
		return nil, fmt.Errorf("model: unknown model %q", name)
	}
}

// ltModel adapts internal/lt to the Model interface: the boosted
// Linear Threshold pool family, re-homed behind the generic contract.
type ltModel struct{}

func (ltModel) Name() string { return "lt" }
func (ltModel) Key() string  { return "lt" }

func (ltModel) NewPool(g *graph.Graph, seeds []int32, seed uint64, workers int) (Pool, error) {
	return lt.NewPool(g, seeds, seed, workers)
}

func (ltModel) EstimateSamples(g *graph.Graph, seeds, boost []int32, sims int, seed uint64, workers int) ([]float64, []float64, error) {
	return lt.EstimateSamples(g, seeds, boost, lt.Options{Sims: sims, Seed: seed, Workers: workers})
}

func (ltModel) Tier0Norms(g *graph.Graph) ([]float64, bool) { return lt.New(g).Norms(), true }

func (ltModel) CandidateCap(k, candCap int) int { return profile.CandidateCap(k, candCap) }

// sirModel exposes model/sir behind the interface.
type sirModel struct{ m *sir.Model }

func (s sirModel) Name() string { return "sir" }
func (s sirModel) Key() string  { return fmt.Sprintf("sir:r=%g", s.m.Recovery()) }

func (s sirModel) NewPool(g *graph.Graph, seeds []int32, seed uint64, workers int) (Pool, error) {
	return s.m.NewPool(g, seeds, seed, workers)
}

func (s sirModel) EstimateSamples(g *graph.Graph, seeds, boost []int32, sims int, seed uint64, workers int) ([]float64, []float64, error) {
	return s.m.EstimateSamples(g, seeds, boost, sims, seed, workers)
}

// Tier0Norms declines: SIR transmissibility is a per-(source, edge)
// transform (1−(1−p)^d with a random infectious duration d), which the
// two-hop estimator's per-node normalizer API cannot express. The
// engine's tier floor for "sir" is therefore tier 1.
func (s sirModel) Tier0Norms(*graph.Graph) ([]float64, bool) { return nil, false }

func (s sirModel) CandidateCap(k, candCap int) int { return profile.CandidateCap(k, candCap) }

// kthreshModel exposes model/kthresh behind the interface.
type kthreshModel struct{ m *kthresh.Model }

func (t kthreshModel) Name() string { return "kthresh" }
func (t kthreshModel) Key() string  { return fmt.Sprintf("kthresh:t=%d", t.m.Threshold()) }

func (t kthreshModel) NewPool(g *graph.Graph, seeds []int32, seed uint64, workers int) (Pool, error) {
	return t.m.NewPool(g, seeds, seed, workers)
}

func (t kthreshModel) EstimateSamples(g *graph.Graph, seeds, boost []int32, sims int, seed uint64, workers int) ([]float64, []float64, error) {
	return t.m.EstimateSamples(g, seeds, boost, sims, seed, workers)
}

// Tier0Norms answers only at threshold 1, where k-threshold activation
// degenerates to independent-cascade percolation and the raw edge
// probabilities are exactly right. At threshold >= 2 a single exposure
// can never activate a node, so the two-hop independent-path estimate
// is structurally wrong — the model declines rather than serve it.
func (t kthreshModel) Tier0Norms(*graph.Graph) ([]float64, bool) {
	if t.m.Threshold() == 1 {
		return nil, true
	}
	return nil, false
}

func (t kthreshModel) CandidateCap(k, candCap int) int { return profile.CandidateCap(k, candCap) }
