package engine

// This file is the one acquire path every pooled mode is served
// through. The two pool families differ in a single way: a PRR pool is
// pruned for its generation budget k, so a query with a larger k needs
// a rebuild, while a simulation pool's possible-world profiles are
// k-independent and only ever grow. Both are wrapped in the pool
// contract below — covers / stale / grow, selection, repair — so the
// singleflight, the cancel-safe handoff, byte accounting, the counters,
// the result cache and graph-patch repair are written once.

import (
	"context"
	"sync/atomic"
	"time"

	"github.com/kboost/kboost/internal/core"
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/model"
	"github.com/kboost/kboost/internal/prr"
)

// pool is the engine's contract over one cached pool. Mutating methods
// (grow, repair) run under the entry's write lock; everything else only
// reads the pool and runs under its read lock.
type pool interface {
	// covers reports that the pool serves s with no sampling at all.
	covers(s sizing) bool
	// stale reports that s needs a rebuild: growth cannot help.
	stale(s sizing) bool
	// grow samples in place until the pool covers s and returns the
	// number of new samples. A failed grow merges nothing.
	grow(ctx context.Context, s sizing) (added int, err error)
	// size is the pool's sample count.
	size() int
	// K is the generation budget a query's k must not exceed, or 0
	// when the pool serves every k.
	K() int
	// Generation identifies the pool contents for the result cache.
	Generation() uint64
	// MemoryEstimate is the pool's resident bytes.
	MemoryEstimate() int64
	// Norms are the tier-0 normalizers the prefilter ranks with (nil:
	// raw edge probabilities).
	Norms() []float64
	// selectBoost runs the selection for a result-cache miss: the
	// greedy over cands when non-nil, else over the pool's default
	// candidates capped at candCap.
	selectBoost(ctx context.Context, k, candCap int, cands []int32) (*core.Result, error)
	// repair migrates the pool onto the patched graph in place,
	// reporting the resampled PRR sketches or profiles; ok false means
	// drop it and rebuild cold.
	repair(g2 *graph.Graph, eff *graph.DeltaEffect, frac float64) (sketches, profiles int, ok bool)
}

// sizing is one request's demand on a pool.
type sizing struct {
	// opt's K, Epsilon, Ell and MaxSamples size a PRR pool; its Seed and
	// Workers seed every fresh pool.
	opt core.Options
	// memo is the PRR sizing-memo key of (K, ε, ℓ, MaxSamples).
	memo string
	// sims is the simulation modes' profile target; <= 0 takes a pool
	// of any size, and a cold build samples defaultSimProfiles.
	sims int
}

// prrPool is a PRR-graph pool plus its IMM sizing memo.
type prrPool struct {
	*prr.Pool
	// sized records the sizings already applied to the pool. Re-running
	// the IMM sizing re-derives its OPT lower bound from the now-larger
	// pool and can land on a slightly larger sample target, so without
	// this memo a literally identical repeat query would still generate
	// a few samples.
	sized map[string]bool // kboost:guarded-by poolEntry.mu
}

func buildPRR(ctx context.Context, spec *modeSpec, g *graph.Graph, seeds []int32, s sizing) (pool, error) {
	p, err := core.BuildPoolContext(ctx, g, seeds, s.opt, spec.prrMode)
	if err != nil {
		return nil, err
	}
	return &prrPool{Pool: p, sized: map[string]bool{s.memo: true}}, nil
}

// kboost:holds poolEntry.mu
func (p *prrPool) covers(s sizing) bool { return p.K() >= s.opt.K && p.sized[s.memo] }

func (p *prrPool) stale(s sizing) bool { return s.opt.K > p.K() }

// kboost:holds poolEntry.mu
func (p *prrPool) grow(ctx context.Context, s sizing) (int, error) {
	if p.sized[s.memo] {
		return 0, nil
	}
	added, err := core.GrowPoolContext(ctx, p.Pool, s.opt)
	if err != nil {
		return 0, err
	}
	p.sized[s.memo] = true
	return added, nil
}

func (p *prrPool) size() int        { return p.Size() }
func (p *prrPool) Norms() []float64 { return nil }

func (p *prrPool) selectBoost(ctx context.Context, k, _ int, cands []int32) (*core.Result, error) {
	return core.BoostFromPoolContext(ctx, p.Pool, core.Options{K: k, Candidates: cands})
}

// kboost:holds poolEntry.mu
func (p *prrPool) repair(g2 *graph.Graph, eff *graph.DeltaEffect, frac float64) (int, int, bool) {
	touched, ok, err := p.Repair(g2, eff.DirtyIn, frac)
	if err != nil || !ok {
		return 0, 0, false
	}
	// The sizing memo restarts empty: it was derived against the
	// pre-patch graph, and re-running the sizing against the patched one
	// lets the next query top the pool up if the patched graph demands
	// more samples.
	clear(p.sized)
	return touched, 0, true
}

// simPool is a pooled simulation model's possible-world pool.
type simPool struct{ model.Pool }

func buildSim(ctx context.Context, spec *modeSpec, g *graph.Graph, seeds []int32, s sizing) (pool, error) {
	sims := s.sims
	if sims <= 0 {
		sims = defaultSimProfiles
	}
	p, err := spec.sim.NewPool(g, seeds, s.opt.Seed, s.opt.Workers)
	if err != nil {
		return nil, err
	}
	// On error the half-sampled pool is discarded whole.
	if err := p.ExtendContext(ctx, sims); err != nil {
		return nil, err
	}
	return simPool{p}, nil
}

func (p simPool) covers(s sizing) bool { return p.NumProfiles() >= s.sims }
func (p simPool) stale(sizing) bool    { return false }
func (p simPool) size() int            { return p.NumProfiles() }
func (p simPool) K() int               { return 0 }

func (p simPool) grow(ctx context.Context, s sizing) (int, error) {
	before := p.NumProfiles()
	if s.sims <= before {
		return 0, nil
	}
	// A failed extension merges nothing and restores the RNG state, so
	// the pool is exactly as it was.
	if err := p.ExtendContext(ctx, s.sims); err != nil {
		return 0, err
	}
	return p.NumProfiles() - before, nil
}

func (p simPool) selectBoost(ctx context.Context, k, candCap int, cands []int32) (*core.Result, error) {
	start := time.Now()
	var chosen []int32
	var est float64
	var err error
	if cands != nil {
		chosen, est, err = p.GreedyBoostAmongContext(ctx, k, cands)
	} else {
		chosen, est, err = p.GreedyBoostContext(ctx, k, candCap)
	}
	if err != nil {
		return nil, err
	}
	return &core.Result{BoostSet: chosen, EstBoost: est, Samples: p.NumProfiles(), SelectionTime: time.Since(start)}, nil
}

// repair migrates only pools whose model can (model.Repairer); the
// rest fall back to a drop and cold rebuild.
func (p simPool) repair(g2 *graph.Graph, eff *graph.DeltaEffect, frac float64) (int, int, bool) {
	rep, ok := p.Pool.(model.Repairer)
	if !ok {
		return 0, 0, false
	}
	touched, ok, err := rep.Repair(g2, eff.DirtyOut, eff.DirtyIn, frac)
	if err != nil || !ok {
		return 0, 0, false
	}
	return 0, touched, true
}

// poolReq names the pool a request needs and what it must cover.
type poolReq struct {
	graphID string
	version uint64
	seeds   []int32 // canonical
	spec    *modeSpec
	rg      *reqGraph
	size    sizing
	// sc is the simulation mode's counter block; nil for the PRR modes.
	sc *SimModeStats
}

// acquired reports how acquire served a request.
type acquired struct {
	hit     bool // a cached pool served it, possibly grown in place
	rebuilt bool // a cached pool was stale and was rebuilt
	added   int  // samples generated for this request
}

// acquire returns the entry for the request's (graph snapshot, mode,
// seeds) with a pool that covers r.size — built cold, rebuilt or grown
// in place as needed — holding ent.mu for reading on success (the
// caller must RUnlock). The content-derived graph is only materialized
// for a build: warm queries never pay the derive.
//
// Cancellation is polled throughout the sampling loops. A canceled or
// failed cold build never poisons the cache: the pool under
// construction is discarded whole, and the entry is either handed off
// to a follower already blocked on its singleflight lock or dropped. A
// failed rebuild or growth keeps the cached pool, which still serves
// every sizing it covered before.
func (e *Engine) acquire(ctx context.Context, r *poolReq) (*poolEntry, acquired, error) {
	ent := e.acquireEntry(poolKey(r.graphID, r.version, r.spec.tag(), r.seeds), r.graphID, r.version)

	// Fast path: a pool that already covers the request needs only read
	// access, so concurrent warm queries on the same pool run in
	// parallel instead of serializing.
	rlockEntry(ent)
	if ent.pool != nil && ent.pool.covers(r.size) {
		a := acquired{hit: true}
		e.countPool(r.sc, a)
		return ent, a, nil
	}
	ent.mu.RUnlock()

	lockEntry(ent)
	if err := ctx.Err(); err != nil {
		// Canceled while blocked on the singleflight lock: nothing was
		// built on our behalf, so just walk away. The entry belongs to
		// whoever is building (or will build) under it.
		ent.mu.Unlock()
		return nil, acquired{}, e.noteRequestErr(err)
	}
	var a acquired
	if ent.pool == nil || ent.pool.stale(r.size) {
		g, err := r.rg.get()
		var p pool
		if err == nil {
			p, err = r.spec.build(ctx, r.spec, g, r.seeds, r.size)
		}
		if err != nil {
			// A failed cold build leaves an entry with no pool, which must
			// not stay in the cache looking warm: if followers are blocked
			// on the singleflight lock it is handed off — the next one finds
			// no pool and runs the cold build itself, exactly the path it
			// would have taken had it arrived first — otherwise dropped.
			drop := ent.pool == nil && ent.waiters.Load() == 0
			ent.mu.Unlock()
			if drop {
				e.dropEntry(ent)
			}
			return nil, acquired{}, e.noteRequestErr(err)
		}
		if ent.pool != nil {
			a.rebuilt = true
			ent.clearResults() // a rebuilt pool may repeat generation numbers
		}
		ent.pool, ent.derived = p, !r.spec.content.Identity()
		ent.ready.Store(true)
		a.added = p.size()
	} else {
		// Another query may have grown the pool between the read and
		// write locks, in which case this adds nothing.
		added, err := ent.pool.grow(ctx, r.size)
		if err != nil {
			ent.mu.Unlock()
			return nil, acquired{}, e.noteRequestErr(err)
		}
		a.hit, a.added = true, added
	}
	e.countPool(r.sc, a)
	e.accountBytes(ent, ent.pool.MemoryEstimate())
	// Downgrade to a read lock for selection. Another query may grow the
	// pool in the gap; selection then simply runs against the larger
	// pool, which is the same behavior concurrent queries always had.
	ent.mu.Unlock()
	ent.mu.RLock()
	return ent, a, nil
}

// countPool records one acquire outcome. Added samples count into
// prr_generated for the PRR modes and into the mode's profiles for the
// simulation modes; only growth that added samples is an extension.
func (e *Engine) countPool(sc *SimModeStats, a acquired) {
	switch {
	case a.rebuilt:
		atomic.AddInt64(&e.ctr.PoolRebuilds, 1)
	case !a.hit:
		atomic.AddInt64(&e.ctr.PoolMisses, 1)
	default:
		atomic.AddInt64(&e.ctr.PoolHits, 1)
		if a.added > 0 {
			atomic.AddInt64(&e.ctr.PoolExtensions, 1)
		}
	}
	if sc == nil {
		if a.added > 0 {
			atomic.AddInt64(&e.ctr.PRRGenerated, int64(a.added))
		}
		return
	}
	if !a.hit {
		atomic.AddInt64(&sc.PoolMisses, 1)
	} else {
		atomic.AddInt64(&sc.PoolHits, 1)
		if a.added > 0 {
			atomic.AddInt64(&sc.PoolExtensions, 1)
		}
	}
	if a.added > 0 {
		atomic.AddInt64(&sc.Profiles, int64(a.added))
	}
}

// selectCached runs (or recalls) the selection for a ready pool under
// the generation-keyed result cache. Callers hold ent.mu.RLock;
// ent.pool is immutable for the duration.
// kboost:holds mu
func (e *Engine) selectCached(ctx context.Context, ent *poolEntry, sc *SimModeStats, out *BoostResult, key resultKey, cands []int32) (*BoostResult, error) {
	key.gen = ent.pool.Generation()
	ent.resMu.Lock()
	if ent.resultsGen != key.gen {
		ent.results, ent.resultsGen = nil, key.gen
	}
	cached := ent.results[key]
	ent.resMu.Unlock()
	if cached != nil {
		out.Result = copyResult(cached)
		out.ResultCached = true
		atomic.AddInt64(&e.ctr.ResultHits, 1)
		if sc != nil {
			atomic.AddInt64(&sc.ResultHits, 1)
		}
		return out, nil
	}

	res, err := ent.pool.selectBoost(ctx, key.k, key.cand, cands)
	if err != nil {
		return nil, e.noteRequestErr(err)
	}
	ent.resMu.Lock()
	if ent.resultsGen == key.gen && len(ent.results) < maxCachedResults {
		if ent.results == nil {
			ent.results = make(map[resultKey]*core.Result)
		}
		ent.results[key] = res
	}
	ent.resMu.Unlock()
	out.Result = copyResult(res)
	return out, nil
}
