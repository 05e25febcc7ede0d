// Package engine turns the one-shot kboost library into a long-lived
// query-serving system: it holds registered graph snapshots and a
// bounded LRU cache of sampled pools, so that repeated boosting and
// estimate queries over the same (graph, seed set) amortize the
// expensive sampling phase instead of regenerating it from scratch.
//
// Graphs mutate only by installing a fresh immutable snapshot under a
// monotonically increasing per-id version, and every pool cache key
// embeds the version it was built against. UploadGraph replaces the
// whole snapshot and sweeps the replaced version's pools and result
// caches; RepairGraph applies an edge delta and instead *migrates* the
// cached pools to the new version by repairing them in place (see
// repair.go). Either way a query can never mix sketches from two
// snapshot versions: in-flight queries keep the coherent snapshot they
// started with, and new queries only ever find pools keyed to the
// current version.
//
// Pools are cached per (graph snapshot, seed set, mode), in one LRU
// under one byte budget, and every pooled mode is served by the same
// acquire path (acquire.go) over a small pool contract with two
// implementations. The PRR modes ("ic", "lb") cache PRR-graph pools,
// each with the generation budget k it was built with: because a
// PRR-graph generated for budget k' is valid for any query with
// k <= k', a cached pool serves every smaller-or-equal k directly,
// while a larger k forces a rebuild (generation-time pruning depends on
// k, so growth cannot help there). The simulation modes ("lt", "sir",
// "kthresh" — every internal/model Model) cache pre-sampled
// possible-world pools, whose profiles do not depend on k: any k is a
// warm query and such a pool never rebuilds. Either kind grows in place
// when a query needs more samples — tighter ε, higher ℓ or a raised
// sample cap for PRR, a larger simulation budget for the profile pools
// — reusing existing samples and generating only the shortfall.
//
// Access to each cached pool is serialized by a per-entry mutex, which
// doubles as singleflight deduplication: when identical queries arrive
// concurrently, exactly one builds the pool and the rest block until
// it is ready, then reuse it. Selection results are cached per pool
// generation, so an identical warm query skips selection entirely. The
// mode registry (mode.go) resolves request modes and per-model knobs
// onto the two pool families, and the optional content modifier
// derives per-request graphs whose pools are cached under
// content-tagged keys.
package engine

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/kboost/kboost/internal/approx"
	"github.com/kboost/kboost/internal/core"
	"github.com/kboost/kboost/internal/diffusion"
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/model"
	"github.com/kboost/kboost/internal/panicsafe"
	"github.com/kboost/kboost/internal/prr"
	"github.com/kboost/kboost/internal/rrset"
)

// ErrUnknownGraph is returned (wrapped) when a request names a graph id
// that was never registered (or has been deleted).
var ErrUnknownGraph = errors.New("unknown graph id")

// Options configures an Engine.
type Options struct {
	// MaxPools bounds the PRR-pool LRU cache by entry count (default 8,
	// minimum 1).
	MaxPools int
	// MaxPoolBytes bounds the cache by resident pool bytes, the
	// engine's main memory knob now that pool sizes vary by orders of
	// magnitude across graphs. Pool storage is arena-backed, so
	// MemoryEstimate is exact (backing-array lengths × element sizes:
	// graph arena + coverage index + selection index for PRR pools, flat
	// profile state + frontier index for LT pools) and pool_bytes /
	// retired_pool_bytes report real memory, not a per-edge guess.
	// Default 1 GiB. The most recently used pool is always retained,
	// even when it alone exceeds the budget.
	MaxPoolBytes int64
	// Workers is the worker budget used for pool construction and for
	// requests that do not set their own (default GOMAXPROCS). A pool's
	// worker count is fixed at construction — per-worker RNG streams
	// make sampling deterministic for a fixed (seed, workers) pair — so
	// this, not the per-request budget, governs cached pools.
	Workers int
	// RepairFallbackFraction is the touched-cost threshold for graph
	// patches (RepairGraph): a cached pool whose touched share of total
	// regeneration cost — Σ expansion size over touched PRR sketches, or
	// Σ cascade size over touched LT profiles, which is what resampling
	// time is actually proportional to — exceeds it is dropped instead
	// of repaired; at that point a cold rebuild is cheaper than a repair
	// that resamples almost everything and still rebuilds the indexes.
	// (Earlier versions weighted by touched *count*, which understates
	// the bill on dense supercritical graphs where the touched sketches
	// are exactly the expensive ones.) Default 0.5; values above 1 are
	// clamped to 1 (always repair, never fall back).
	RepairFallbackFraction float64
}

func (o Options) withDefaults() Options {
	if o.MaxPools < 1 {
		o.MaxPools = 8
	}
	if o.MaxPoolBytes <= 0 {
		o.MaxPoolBytes = 1 << 30
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.RepairFallbackFraction <= 0 {
		o.RepairFallbackFraction = 0.5
	}
	if o.RepairFallbackFraction > 1 {
		o.RepairFallbackFraction = 1
	}
	return o
}

// Stats is a snapshot of the engine's counters.
type Stats struct {
	Graphs int `json:"graphs"` // registered graph snapshots
	Pools  int `json:"pools"`  // currently cached PRR pools
	// PoolBytes is the summed resident size of the cached pools (the
	// quantity MaxPoolBytes evicts on) — exact arena byte counts since
	// pool storage went flat, so operators can size MaxPoolBytes against
	// real memory.
	PoolBytes int64 `json:"pool_bytes"`

	// GraphVersions maps each registered graph id to its current
	// snapshot version: 1 for the first upload, bumped by every
	// replacement. Versions are per-process; a restarted engine starts
	// over at 1.
	GraphVersions map[string]uint64 `json:"graph_versions,omitempty"`

	// Counters is embedded, so its fields are promoted (st.PoolHits)
	// and encoding/json flattens them into the top-level object.
	Counters

	// SimModes breaks the pooled simulation traffic down per mode
	// ("lt", "sir", "kthresh"): queries, their share of the pool cache
	// traffic, and the cumulative number of Monte-Carlo profiles
	// generated. A mode appears once it has served at least one query.
	SimModes map[string]SimModeStats `json:"sim_modes,omitempty"`
}

// Counters is the engine's block of cumulative counters. The same
// struct is both the engine's live block, where every field is only
// ever touched through sync/atomic so the hot path (warm queries
// bumping hit counters) neither contends on nor races with Engine.mu,
// and the plain copy Stats reports, loaded field by field with
// loadCounters.
type Counters struct {
	// UploadsTotal counts accepted graph snapshots — startup
	// registrations and live uploads alike. GraphDeletes counts
	// successful DeleteGraph calls.
	UploadsTotal int64 `json:"uploads_total"`
	GraphDeletes int64 `json:"graph_deletes"`
	// InvalidatedPools and RetiredPoolBytes account the pools swept
	// because an upload replaced (or a delete removed) their snapshot —
	// cumulative, so operators can see how much warm state graph churn
	// is throwing away.
	InvalidatedPools int64 `json:"invalidated_pools"`
	RetiredPoolBytes int64 `json:"retired_pool_bytes"`

	// GraphPatches counts accepted edge-delta patches (RepairGraph). The
	// four repair counters below account what happened to the patched
	// graph's cached pools: RepairSkippedRebuilds pools were repaired in
	// place (a cold rebuild avoided), at the cost of re-deriving
	// RepairedSketches PRR sketches and RepairedProfiles LT profiles;
	// RepairFallbackRebuilds pools were dropped because their touched
	// cost share exceeded RepairFallbackFraction, leaving the next query
	// to rebuild cold.
	GraphPatches           int64 `json:"graph_patches"`
	RepairedSketches       int64 `json:"repaired_sketches"`
	RepairedProfiles       int64 `json:"repaired_profiles"`
	RepairSkippedRebuilds  int64 `json:"repair_skipped_rebuilds"`
	RepairFallbackRebuilds int64 `json:"repair_fallback_rebuilds"`

	BoostQueries    int64 `json:"boost_queries"`
	SeedQueries     int64 `json:"seed_queries"`
	EstimateQueries int64 `json:"estimate_queries"`

	// EstimateTier0/1/2 break the estimate queries down by the tier that
	// served them: 0 = closed-form two-hop approximation, 1 =
	// small-sample Monte-Carlo with a CI, 2 = full evaluation (knobless
	// requests always count here). EstimateQueries is their sum: a
	// request that fails counts in neither. TierCalibrations counts
	// per-snapshot calibration passes, each of which ran all three tiers
	// once to measure the cheap tiers' error against the exact answer.
	EstimateTier0    int64 `json:"estimate_tier0"`
	EstimateTier1    int64 `json:"estimate_tier1"`
	EstimateTier2    int64 `json:"estimate_tier2"`
	TierCalibrations int64 `json:"tier_calibrations"`

	// PoolHits counts pool-backed queries (every pooled mode) served
	// from a cached pool (possibly after an in-place extension);
	// PoolMisses counts cold builds; PoolRebuilds counts builds forced by
	// a k larger than the cached pool's generation budget (PRR only —
	// simulation profiles are k-independent and never rebuild).
	PoolHits     int64 `json:"pool_hits"`
	PoolMisses   int64 `json:"pool_misses"`
	PoolRebuilds int64 `json:"pool_rebuilds"`
	// PoolExtensions counts warm queries that grew a cached pool in
	// place (tighter ε / larger sample budget / more LT simulations).
	PoolExtensions int64 `json:"pool_extensions"`
	// ResultHits counts boost queries answered from the per-pool result
	// cache — identical warm queries that skipped selection entirely.
	ResultHits int64 `json:"result_hits"`
	Evictions  int64 `json:"evictions"`

	// PRRGenerated is the cumulative number of PRR-graphs generated
	// across all pools, including rebuilt and evicted ones. A warm-path
	// query leaves it unchanged.
	PRRGenerated int64 `json:"prr_generated"`

	// The request-lifecycle counters. RequestsShed counts requests the
	// server's admission control rejected with 429 (never admitted, so
	// they appear in no per-query counter); RequestsCanceled counts
	// admitted requests abandoned because their context was canceled or
	// timed out mid-flight; PanicsRecovered counts panics contained by
	// the shard workers or the server middleware and converted into
	// errors instead of crashing the process; DegradedEstimates counts
	// estimate queries that admission pressure forced down to tier 0
	// (served with degraded: true instead of being shed).
	RequestsShed      int64 `json:"requests_shed"`
	RequestsCanceled  int64 `json:"requests_canceled"`
	PanicsRecovered   int64 `json:"panics_recovered"`
	DegradedEstimates int64 `json:"degraded_estimates"`
}

// loadCounters returns a plain copy of a live counter block — a struct
// whose fields are all int64 and only touched through sync/atomic —
// loading each field atomically.
func loadCounters[T any](live *T) T {
	var out T
	src, dst := reflect.ValueOf(live).Elem(), reflect.ValueOf(&out).Elem()
	for i := 0; i < src.NumField(); i++ {
		dst.Field(i).SetInt(atomic.LoadInt64(src.Field(i).Addr().Interface().(*int64)))
	}
	return out
}

// snapshot is one immutable registered graph plus its version.
type snapshot struct {
	g       *graph.Graph
	version uint64
}

// Engine is a long-lived, concurrency-safe boosting service over a set
// of registered graph snapshots. The zero value is not usable; create
// one with New.
type Engine struct {
	// ctr is the live counter block. It stays the first field: the
	// 64-bit atomics on its plain int64 fields need 8-byte alignment,
	// which 32-bit platforms only guarantee at the start of an
	// allocation.
	ctr Counters

	opt Options

	mu     sync.Mutex
	graphs map[string]*snapshot // kboost:guarded-by mu
	// versions is the per-id version high-water mark. Unlike graphs it
	// survives DeleteGraph: if a deleted id could restart at version 1,
	// a pool built against the deleted snapshot by an in-flight query
	// would pass acquireEntry's version-currency check and be cached for
	// the unrelated new graph. Monotonicity across recreation keeps the
	// "no query ever mixes snapshots" invariant airtight.
	versions  map[string]uint64     // kboost:guarded-by mu
	pools     map[string]*poolEntry // kboost:guarded-by mu
	lru       *list.List            // of *poolEntry; front = most recently used // kboost:guarded-by mu
	poolBytes int64                 // summed ent.bytes of cached pools // kboost:guarded-by mu

	// cals caches per-(graph, mode) tier calibrations for the tiered
	// estimate path (see tier.go). calMu is a leaf lock: it is never
	// held while acquiring Engine.mu or an entry lock.
	calMu sync.Mutex
	cals  map[string]*calibration // kboost:guarded-by calMu

	// simCtrs holds the per-mode live counter blocks for the pooled
	// simulation family, created on first use (each its own allocation,
	// so 8-byte aligned). simCtrMu is a leaf lock guarding only map
	// access; the blocks themselves are touched only through
	// sync/atomic.
	simCtrMu sync.Mutex
	simCtrs  map[string]*SimModeStats // kboost:guarded-by simCtrMu
}

// poolEntry is one cached pool. entry.mu serializes pool *mutation*
// (build, rebuild, grow) against everything else, and doubles as
// singleflight — concurrent identical cold queries block here while the
// first one builds. Selection and estimation only read the pool, so
// they share an RLock: warm queries on the same pool run concurrently
// instead of serializing behind one mutex.
type poolEntry struct {
	key string
	// graphID is the registered graph the pool was built against;
	// UploadGraph/DeleteGraph sweep entries by it.
	graphID string
	// elem is nil for detached entries (see acquireEntry).
	elem *list.Element // kboost:guarded-by Engine.mu

	mu   sync.RWMutex
	pool pool // nil until the first query builds it // kboost:guarded-by mu
	// derived marks a pool sampled from a content-derived graph rather
	// than the registered snapshot itself. Such pools are dropped (not
	// repaired) on graph patches: the patch delta describes the base
	// graph, and migrating worlds sampled under transformed probabilities
	// onto it would mix the two.
	derived bool // kboost:guarded-by mu

	// bytes is the pool's last MemoryEstimate, accounted into
	// Engine.poolBytes; guarded by Engine.mu, not entry.mu.
	bytes int64 // kboost:guarded-by Engine.mu

	// waiters counts requests currently blocked on (or about to block
	// on) mu. A canceled cold build consults it to decide between
	// handing the entry off to a blocked follower (who retries the
	// build under the same singleflight lock) and dropping the entry
	// outright; either way the cache never retains a half-built pool.
	waiters atomic.Int32
	// ready flips true after the first successful build and stays true
	// (repairs and extensions keep the pool warm). The server's
	// admission control reads it lock-free to classify an incoming
	// request as warm or cold.
	ready atomic.Bool

	// results caches final selection results keyed by (pool generation,
	// k): selection is a pure function of the pool contents, so an
	// identical warm query skips it entirely. resultsGen tracks the
	// generation the map is valid for; growth or rebuild invalidates by
	// generation mismatch / explicit clear.
	resMu      sync.Mutex
	results    map[resultKey]*core.Result // kboost:guarded-by resMu
	resultsGen uint64                     // kboost:guarded-by resMu
}

// resultKey identifies one cached selection result. cand is the
// resolved candidate-pool cap for LT selections (0 for PRR, whose
// selection has no candidate cap); pre is the request's tier-0
// pre-filter cap (0 when disabled). Both are part of the key because
// they change which candidates the greedy may pick.
type resultKey struct {
	gen  uint64
	k    int
	cand int
	pre  int
}

// maxCachedResults bounds a pool's result cache; distinct k values per
// generation rarely exceed a handful, this is a backstop.
const maxCachedResults = 128

// New creates an Engine.
func New(opt Options) *Engine {
	return &Engine{
		opt:      opt.withDefaults(),
		graphs:   make(map[string]*snapshot),
		versions: make(map[string]uint64),
		pools:    make(map[string]*poolEntry),
		lru:      list.New(),
		cals:     make(map[string]*calibration),
		simCtrs:  make(map[string]*SimModeStats),
	}
}

// RegisterGraph adds a graph snapshot under id (at version 1).
// Re-registering an id is an error; use UploadGraph to replace a live
// snapshot.
func (e *Engine) RegisterGraph(id string, g *graph.Graph) error {
	if err := validateUpload(id, g); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.graphs[id]; dup {
		return fmt.Errorf("engine: graph id %q already registered", id)
	}
	e.graphs[id] = &snapshot{g: g, version: e.nextVersionLocked(id)}
	atomic.AddInt64(&e.ctr.UploadsTotal, 1)
	return nil
}

// nextVersionLocked advances and returns the version high-water mark
// for id. Callers hold e.mu.
func (e *Engine) nextVersionLocked(id string) uint64 {
	v := e.versions[id] + 1
	e.versions[id] = v
	return v
}

// UploadResult reports an accepted snapshot upload.
type UploadResult struct {
	// Version is the snapshot's version: 1 for a never-seen id,
	// previous+1 otherwise — monotonic per id for the life of the
	// process, even across DeleteGraph.
	Version uint64
	// Replaced is true when the upload superseded a live snapshot.
	Replaced bool
	// InvalidatedPools and RetiredBytes account the replaced version's
	// swept pool cache entries.
	InvalidatedPools int
	RetiredBytes     int64
}

// UploadGraph installs g as the current snapshot for id, creating the
// id or replacing the live snapshot under a bumped version. Replacement
// atomically sweeps every cached pool (and its result cache) built
// against the old version, so no future query can observe a stale
// sketch; queries already in flight keep the coherent old snapshot they
// started with.
func (e *Engine) UploadGraph(id string, g *graph.Graph) (UploadResult, error) {
	if err := validateUpload(id, g); err != nil {
		return UploadResult{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var res UploadResult
	if _, ok := e.graphs[id]; ok {
		res.Replaced = true
		res.InvalidatedPools, res.RetiredBytes = e.invalidateGraphLocked(id)
		e.dropCalibrations(id)
	}
	res.Version = e.nextVersionLocked(id)
	e.graphs[id] = &snapshot{g: g, version: res.Version}
	atomic.AddInt64(&e.ctr.UploadsTotal, 1)
	return res, nil
}

// DeleteGraph removes the snapshot for id and sweeps its cached pools,
// returning how many were invalidated.
func (e *Engine) DeleteGraph(id string) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.graphs[id]; !ok {
		return 0, fmt.Errorf("engine: %w: %q", ErrUnknownGraph, id)
	}
	delete(e.graphs, id)
	invalidated, _ := e.invalidateGraphLocked(id)
	e.dropCalibrations(id)
	atomic.AddInt64(&e.ctr.GraphDeletes, 1)
	return invalidated, nil
}

func validateUpload(id string, g *graph.Graph) error {
	if id == "" {
		return fmt.Errorf("engine: empty graph id")
	}
	if g == nil {
		return fmt.Errorf("engine: nil graph for id %q", id)
	}
	return nil
}

// invalidateGraphLocked sweeps every cached pool built against id,
// clearing their result caches and byte accounting. Callers hold e.mu.
// An in-flight query holding an entry reference simply finishes against
// its detached pool; nothing new can find the entry afterwards.
func (e *Engine) invalidateGraphLocked(id string) (pools int, bytes int64) {
	for key, ent := range e.pools {
		if ent.graphID != id {
			continue
		}
		delete(e.pools, key)
		e.lru.Remove(ent.elem)
		e.poolBytes -= ent.bytes
		bytes += ent.bytes
		pools++
		ent.clearResults()
	}
	atomic.AddInt64(&e.ctr.InvalidatedPools, int64(pools))
	atomic.AddInt64(&e.ctr.RetiredPoolBytes, bytes)
	return pools, bytes
}

// snapshotFor returns the current snapshot for id. The (graph, version)
// pair is read atomically, so a query keys its pools to exactly the
// snapshot it computes against.
func (e *Engine) snapshotFor(id string) (*graph.Graph, uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	snap, ok := e.graphs[id]
	if !ok {
		return nil, 0, fmt.Errorf("engine: %w: %q", ErrUnknownGraph, id)
	}
	return snap.g, snap.version, nil
}

// Graph returns the registered snapshot for id.
func (e *Engine) Graph(id string) (*graph.Graph, error) {
	g, _, err := e.snapshotFor(id)
	return g, err
}

// GraphVersion returns the current snapshot version for id.
func (e *Engine) GraphVersion(id string) (uint64, error) {
	_, v, err := e.snapshotFor(id)
	return v, err
}

// GraphIDs lists the registered snapshot ids, sorted.
func (e *Engine) GraphIDs() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	ids := make([]string, 0, len(e.graphs))
	for id := range e.graphs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// GraphInfo describes one registered snapshot.
type GraphInfo struct {
	ID      string `json:"graph"`
	Version uint64 `json:"version"`
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`
}

// GraphInfo returns the descriptor of the current snapshot for id.
func (e *Engine) GraphInfo(id string) (GraphInfo, error) {
	g, v, err := e.snapshotFor(id)
	if err != nil {
		return GraphInfo{}, err
	}
	return GraphInfo{ID: id, Version: v, Nodes: g.N(), Edges: g.M()}, nil
}

// GraphInfos lists the registered snapshots, sorted by id.
func (e *Engine) GraphInfos() []GraphInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	infos := make([]GraphInfo, 0, len(e.graphs))
	for id, snap := range e.graphs {
		infos = append(infos, GraphInfo{ID: id, Version: snap.version, Nodes: snap.g.N(), Edges: snap.g.M()})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return infos
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	st := Stats{Counters: loadCounters(&e.ctr)}
	e.simCtrMu.Lock()
	if len(e.simCtrs) > 0 {
		st.SimModes = make(map[string]SimModeStats, len(e.simCtrs))
		for name, sc := range e.simCtrs {
			st.SimModes[name] = loadCounters(sc)
		}
	}
	e.simCtrMu.Unlock()
	e.mu.Lock()
	st.Graphs = len(e.graphs)
	st.Pools = len(e.pools)
	st.PoolBytes = e.poolBytes
	st.GraphVersions = make(map[string]uint64, len(e.graphs))
	for id, snap := range e.graphs {
		st.GraphVersions[id] = snap.version
	}
	e.mu.Unlock()
	return st
}

// BoostRequest is one boosting query against a registered graph.
type BoostRequest struct {
	GraphID string  `json:"graph"`
	Seeds   []int32 `json:"seeds"`
	K       int     `json:"k"`
	// Mode selects the diffusion model and algorithm: "ic" (PRR-Boost,
	// the default; "" and the legacy "full" are aliases), "lb"
	// (PRR-Boost-LB, leaner pools, lower-bound greedy only), or one of
	// the pooled simulation models — "lt" (boosted Linear Threshold),
	// "sir" (boosted SIR epidemic), "kthresh" (k-threshold complex
	// contagion) — each a Monte-Carlo greedy over a cached pool of
	// pre-sampled possible worlds, heuristics with no approximation
	// guarantee (see internal/model).
	Mode       string  `json:"mode,omitempty"`
	Epsilon    float64 `json:"epsilon,omitempty"`
	Ell        float64 `json:"ell,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	Workers    int     `json:"workers,omitempty"`
	MaxSamples int     `json:"max_samples,omitempty"`
	// Sims is the Monte-Carlo profile budget for the simulation modes
	// (default 10000); a cached pool with fewer profiles is extended in
	// place. Ignored by the PRR modes.
	Sims int `json:"sims,omitempty"`
	// CandCap caps the greedy candidate pool for the simulation modes
	// (<= 0 picks the 4k default). Ignored by the PRR modes.
	CandCap int `json:"cand_cap,omitempty"`
	// Recovery is mode "sir"'s per-round recovery probability in (0, 1]
	// (0 picks the 0.5 default); rejected for every other mode.
	Recovery float64 `json:"recovery,omitempty"`
	// Threshold is mode "kthresh"'s activation threshold, >= 1 (0 picks
	// the default of 2); rejected for every other mode.
	Threshold int `json:"threshold,omitempty"`
	// Content, when set, applies the content-properties transmission
	// modifier: the query computes against a derived graph whose edge
	// probabilities are scaled by the item's virality and credibility,
	// and pools/results/calibrations are cached under content-tagged
	// keys so distinct content never shares sampled worlds.
	Content *model.Content `json:"content,omitempty"`
	// Prefilter, when > 0, restricts the greedy to the top-Prefilter
	// candidates of the closed-form two-hop ranking (internal/approx) —
	// the tier-0 estimator doubling as a CELF pre-filter. Selection gets
	// cheaper but inherits tier 0's lack of guarantees: nodes the
	// two-hop ranking scores at zero can never be picked. 0 (the
	// default) keeps the exact candidate handling, and results are
	// cached separately per Prefilter value.
	Prefilter int `json:"prefilter,omitempty"`
}

// BoostResult is a core.Result plus cache provenance.
type BoostResult struct {
	core.Result
	// CacheHit is true when the query was served from a cached pool
	// (NewSamples then reports the in-place extension, zero for a fully
	// warm query).
	CacheHit bool
	// ResultCached is true when even the selection phase was skipped:
	// an identical query (same pool contents, same k) had already run
	// and its result was cached.
	ResultCached bool
	// Rebuilt is true when a cached pool existed but had to be rebuilt
	// because the query's K exceeded its generation budget.
	Rebuilt bool
	// NewSamples is the number of samples generated by this query:
	// PRR-graphs for the PRR modes, possible-world profiles for the
	// simulation modes (both surface as new_prr_graphs in the HTTP
	// response).
	NewSamples int
	// PoolK is the generation budget of the pool that served the query.
	// Always 0 for the simulation modes: their profiles are
	// k-independent, so such a pool has no generation budget and serves
	// every k.
	PoolK int
	// GraphVersion is the snapshot version the query computed against.
	GraphVersion uint64
}

// canonicalSeeds returns a sorted copy of seeds so that permutations of
// the same seed set share one cache entry.
func canonicalSeeds(seeds []int32) []int32 {
	out := append([]int32(nil), seeds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// poolKey builds a cache key from the graph id and snapshot version, a
// mode tag ("m0"/"m1" for the PRR materialization modes, "lt" for LT
// profile pools) and the canonical seed set. Embedding the version
// means a replaced snapshot's pools can never be found by queries
// against the new one, even if a sweep raced an in-flight insert.
func poolKey(graphID string, version uint64, modeTag string, seeds []int32) string {
	var b strings.Builder
	b.WriteString(graphID)
	b.WriteByte('@')
	b.WriteString(strconv.FormatUint(version, 10))
	b.WriteByte('|')
	b.WriteString(modeTag)
	for _, s := range seeds {
		b.WriteByte('|')
		b.WriteString(strconv.Itoa(int(s)))
	}
	return b.String()
}

// acquireEntry returns the cache entry for key, creating it if needed
// and bumping it in the LRU. If the snapshot the key was derived from
// is no longer current — an upload or delete raced this query between
// its snapshot read and here — the entry is created detached: the query
// still runs coherently against the snapshot it fetched, but nothing is
// inserted into the cache for a retired version.
func (e *Engine) acquireEntry(key, graphID string, version uint64) *poolEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ent, ok := e.pools[key]; ok {
		e.lru.MoveToFront(ent.elem)
		e.evictLocked()
		return ent
	}
	ent := &poolEntry{key: key, graphID: graphID}
	if snap, ok := e.graphs[graphID]; ok && snap.version == version {
		e.pools[key] = ent
		ent.elem = e.lru.PushFront(ent)
		e.evictLocked()
	}
	return ent
}

// boostWarm reports — best-effort, without blocking on any entry lock —
// whether a boost request would be served without paying for a cold
// build itself. An existing cache entry counts as warm even before its
// pool is ready: some other request is building it, and this one will
// only wait on the singleflight lock and then read — admitting it to
// the warm lane is what makes canceled-leader handoff possible at all.
// The server's admission control uses this to pick the request's lane;
// a stale or optimistic answer (e.g. a PRR pool about to be rebuilt for
// a larger K, or an entry evicted a microsecond later) misclassifies
// the queue the request waits in, never the result it gets. Invalid
// requests classify warm: their rejection is cheap and should never be
// shed as if it were expensive.
func (e *Engine) boostWarm(req BoostRequest) bool {
	spec, err := resolveSpec(req.Mode, model.Params{Recovery: req.Recovery, Threshold: req.Threshold}, req.Content)
	if err != nil {
		return true
	}
	_, version, err := e.snapshotFor(req.GraphID)
	if err != nil {
		return true
	}
	key := poolKey(req.GraphID, version, spec.tag(), canonicalSeeds(req.Seeds))
	e.mu.Lock()
	_, ok := e.pools[key]
	e.mu.Unlock()
	return ok
}

// estimateWarm is boostWarm for the estimate path. Pool-backed modes
// classify by pool readiness; the pool-free IC path classifies by what
// the request will actually run — closed-form for latency-capped
// requests, a full-tier calibration pass on first contact with an error
// target, and the full Monte-Carlo when knobless.
func (e *Engine) estimateWarm(req EstimateRequest) bool {
	spec, err := resolveSpec(req.Mode, model.Params{Recovery: req.Recovery, Threshold: req.Threshold}, req.Content)
	if err != nil {
		return true
	}
	if spec.sim == nil {
		if req.MaxError > 0 {
			_, version, err := e.snapshotFor(req.GraphID)
			if err != nil {
				return true
			}
			return e.calibrationFor(req.GraphID, spec.calID(), version) != nil
		}
		return req.MaxLatencyMS > 0
	}
	return e.boostWarm(BoostRequest{
		GraphID: req.GraphID, Seeds: req.Seeds, Mode: req.Mode,
		Recovery: req.Recovery, Threshold: req.Threshold, Content: req.Content,
	})
}

// Boost answers a boosting query from the cached pool for the same
// (graph snapshot, seed set, mode): a PRR pool serves every k up to its
// generation budget and is rebuilt for a larger one, a simulation pool
// serves every k. Selection always runs against the current pool, so a
// given query is deterministic for a fixed engine history.
func (e *Engine) Boost(req BoostRequest) (*BoostResult, error) {
	return e.BoostContext(context.Background(), req)
}

// BoostContext is Boost with cooperative cancellation. Cancellation is
// polled at shard and pick boundaries in the sampling and selection
// loops, so a canceled cold build returns ctx.Err() within a few
// sketches. A canceled build never poisons the cache (see acquire): a
// retried identical request rebuilds from the same RNG streams and
// returns bit-identical results. The simulation modes' profile RNG
// seed is fixed at pool construction; a later query's Seed does not
// re-sample a cached pool. acquire returns holding ent.mu.RLock, which
// covers the ent.pool reads below.
// kboost:holds mu
func (e *Engine) BoostContext(ctx context.Context, req BoostRequest) (*BoostResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	spec, err := resolveSpec(req.Mode, model.Params{Recovery: req.Recovery, Threshold: req.Threshold}, req.Content)
	if err != nil {
		return nil, err
	}
	g, version, err := e.snapshotFor(req.GraphID)
	if err != nil {
		return nil, err
	}
	r := poolReq{
		graphID: req.GraphID, version: version, seeds: canonicalSeeds(req.Seeds), spec: spec,
		rg: &reqGraph{base: g, content: spec.content},
		size: sizing{opt: core.Options{
			K: req.K, Epsilon: req.Epsilon, Ell: req.Ell, Seed: req.Seed,
			Workers: e.workersFor(req.Workers), MaxSamples: req.MaxSamples,
		}.WithDefaults()},
	}
	// Reject bad requests before touching the cache: a garbage query
	// must not bump the LRU or evict a warm pool.
	switch {
	case spec.sim == nil:
		err = core.Validate(g, r.seeds, r.size.opt)
	case req.K < 1:
		err = fmt.Errorf("engine: k=%d must be >= 1", req.K)
	default:
		err = validateSimSeeds(g, r.seeds)
	}
	if err == nil && req.Prefilter > 0 && req.Prefilter < req.K {
		// The shortlist could never fill the requested k, so the query
		// would silently return (and cache) a degraded result.
		err = fmt.Errorf("engine: prefilter %d is smaller than k=%d — the shortlist cannot fill the boost set (raise prefilter or drop it)", req.Prefilter, req.K)
	}
	if err != nil {
		return nil, err
	}
	key := resultKey{k: req.K}
	atomic.AddInt64(&e.ctr.BoostQueries, 1)
	if spec.sim == nil {
		o := r.size.opt
		r.size.memo = fmt.Sprintf("%d|%g|%g|%d", o.K, o.Epsilon, o.Ell, o.MaxSamples)
	} else {
		r.sc = e.simCtr(spec.name)
		atomic.AddInt64(&r.sc.BoostQueries, 1)
		// A boost query's simulation budget is a quality floor, so an
		// omitted Sims means the full default — unlike estimates, which
		// reuse a cached pool lazily at whatever size it has.
		r.size.sims = req.Sims
		if r.size.sims <= 0 {
			r.size.sims = defaultSimProfiles
		}
		key.cand = spec.sim.CandidateCap(req.K, req.CandCap)
	}

	ent, a, err := e.acquire(ctx, &r)
	if err != nil {
		return nil, err
	}
	defer ent.mu.RUnlock()
	out := &BoostResult{CacheHit: a.hit, Rebuilt: a.rebuilt, NewSamples: a.added, PoolK: ent.pool.K(), GraphVersion: version}
	var cands []int32
	if req.Prefilter > 0 {
		// Tier-0 pre-filter: the greedy only considers the closed-form
		// two-hop ranking's shortlist under the pool's normalizers.
		// Deterministic in (graph, seeds, cap), so the result cache keys
		// on the cap alone, and the candidate cap is ignored — the
		// shortlist IS the cap.
		g2, err := r.rg.get()
		if err != nil {
			return nil, err
		}
		// A shorter shortlist means the two-hop ranking ran out of nodes
		// with any boostable path from the seeds: restricting the greedy
		// to it would silently degrade (and cache!) the result, so fall
		// back to unrestricted selection, sharing the exact queries'
		// cache slot.
		if c := approx.BoostCandidates(g2, r.seeds, req.Prefilter, ent.pool.Norms()); len(c) >= req.Prefilter {
			key.cand, key.pre, cands = 0, req.Prefilter, c
		}
	}
	return e.selectCached(ctx, ent, r.sc, out, key, cands)
}

// lockEntry acquires ent.mu for writing while counting the caller in
// ent.waiters for the duration of the wait, so a failing leader can see
// whether a follower is poised to take over the entry.
// kboost:locks mu
func lockEntry(ent *poolEntry) {
	ent.waiters.Add(1)
	ent.mu.Lock()
	ent.waiters.Add(-1)
}

// rlockEntry is lockEntry for the warm fast paths. Readers must be
// counted too: a follower that arrives while a leader is building
// blocks in this RLock, and if the leader's build is then canceled it
// must see the follower and hand the entry off instead of dropping it —
// the follower falls through to the write lock and runs the cold build
// itself, keeping the entry (and the result) cached. Two uncontended
// atomic adds on the warm path; invisible next to selection.
// kboost:rlocks mu
func rlockEntry(ent *poolEntry) {
	ent.waiters.Add(1)
	ent.mu.RLock()
	ent.waiters.Add(-1)
}

// noteRequestErr classifies a request-path failure into the lifecycle
// counters: context cancellations and deadline expiries bump
// requests_canceled; contained shard-worker panics bump
// panics_recovered and are wrapped so callers see an internal error
// rather than a crash. Other errors pass through unchanged.
func (e *Engine) noteRequestErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		atomic.AddInt64(&e.ctr.RequestsCanceled, 1)
		return err
	}
	var pe *panicsafe.Error
	if errors.As(err, &pe) {
		atomic.AddInt64(&e.ctr.PanicsRecovered, 1)
		return fmt.Errorf("engine: internal error: %w", err)
	}
	return err
}

// copyResult returns res with its slices copied, so callers (and later
// cache hits) cannot corrupt each other through shared backing arrays.
func copyResult(res *core.Result) core.Result {
	out := *res
	out.BoostSet = append([]int32(nil), res.BoostSet...)
	out.BoostSetMu = append([]int32(nil), res.BoostSetMu...)
	out.BoostSetDelta = append([]int32(nil), res.BoostSetDelta...)
	return out
}

// clearResults empties the result cache; called on rebuild while the
// caller holds ent.mu for writing, and on snapshot invalidation under
// Engine.mu.
func (ent *poolEntry) clearResults() {
	ent.resMu.Lock()
	ent.results, ent.resultsGen = nil, 0
	ent.resMu.Unlock()
}

// --- the pooled simulation serving path ("lt", "sir", "kthresh") ---

// defaultSimProfiles is the Monte-Carlo profile budget when a request
// does not set one (matching lt.Options' historical default).
const defaultSimProfiles = 10000

// validateSimSeeds checks a canonical (sorted) seed set: non-empty, in
// range, and free of duplicates — rejected like the PRR path does, so
// two spellings of one seed set cannot fragment the pool cache.
func validateSimSeeds(g *graph.Graph, seeds []int32) error {
	if len(seeds) == 0 {
		return fmt.Errorf("engine: empty seed set")
	}
	for i, v := range seeds {
		if v < 0 || int(v) >= g.N() {
			return fmt.Errorf("engine: seed %d out of range [0,%d)", v, g.N())
		}
		if i > 0 && seeds[i-1] == v {
			return fmt.Errorf("engine: duplicate seed %d", v)
		}
	}
	return nil
}

// accountBytes records a pool's current memory estimate into the
// engine-wide total and trims the cache if the byte budget is now
// exceeded. An entry evicted or invalidated mid-build is skipped — it
// is no longer in the cache, so crediting it would inflate poolBytes
// with bytes nothing can ever subtract. Safe to call while holding
// ent.mu: eviction never takes entry locks.
func (e *Engine) accountBytes(ent *poolEntry, bytes int64) {
	e.mu.Lock()
	if cur, ok := e.pools[ent.key]; ok && cur == ent {
		e.poolBytes += bytes - ent.bytes
		ent.bytes = bytes
		e.evictLocked()
	}
	e.mu.Unlock()
}

// workersFor resolves a per-request worker budget against the engine
// default.
func (e *Engine) workersFor(requested int) int {
	if requested > 0 {
		return requested
	}
	return e.opt.Workers
}

// dropEntry removes a failed entry from the cache so the next query
// retries the build instead of inheriting a nil pool.
func (e *Engine) dropEntry(ent *poolEntry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur, ok := e.pools[ent.key]; ok && cur == ent {
		delete(e.pools, ent.key)
		e.lru.Remove(ent.elem)
		e.poolBytes -= ent.bytes
	}
}

// evictLocked trims the LRU to MaxPools entries and MaxPoolBytes
// estimated bytes (the byte bound always keeps the most recently used
// pool, so one oversized pool cannot evict itself into a rebuild loop).
// Callers hold e.mu. An evicted entry may still be in use by an
// in-flight query holding its own reference; it simply stops being
// findable and is freed when the query finishes.
func (e *Engine) evictLocked() {
	for len(e.pools) > e.opt.MaxPools ||
		(e.poolBytes > e.opt.MaxPoolBytes && len(e.pools) > 1) {
		back := e.lru.Back()
		if back == nil {
			return
		}
		ent := back.Value.(*poolEntry)
		e.lru.Remove(back)
		delete(e.pools, ent.key)
		e.poolBytes -= ent.bytes
		atomic.AddInt64(&e.ctr.Evictions, 1)
	}
}

// SeedsRequest asks for k influence-maximizing seeds on a registered
// graph (classic IMM, no boosting).
type SeedsRequest struct {
	GraphID string `json:"graph"`
	K       int    `json:"k"`
	// Mode must name a registered diffusion mode, and of those only ""
	// and "ic" are servable — IMM's RR-set machinery is IC-specific. The
	// field exists so a mistyped mode gets the same unknown-mode 400
	// every other endpoint returns instead of being silently ignored.
	Mode       string  `json:"mode,omitempty"`
	Epsilon    float64 `json:"epsilon,omitempty"`
	Ell        float64 `json:"ell,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	Workers    int     `json:"workers,omitempty"`
	MaxSamples int     `json:"max_samples,omitempty"`
}

// SelectSeeds runs IMM seed selection on a registered graph. RR-set
// pools are much cheaper than PRR pools and are not cached.
func (e *Engine) SelectSeeds(req SeedsRequest) (rrset.Result, error) {
	return e.SelectSeedsContext(context.Background(), req)
}

// SelectSeedsContext is SelectSeeds with cooperative cancellation: the
// RR-set pool is per-request (never cached), so a canceled selection
// simply abandons it — there is no cache state to protect.
func (e *Engine) SelectSeedsContext(ctx context.Context, req SeedsRequest) (rrset.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	spec, err := resolveSpec(req.Mode, model.Params{}, nil)
	if err != nil {
		return rrset.Result{}, err
	}
	if spec.name != "ic" {
		return rrset.Result{}, fmt.Errorf("engine: seed selection runs under mode \"ic\" only (got mode %q)", spec.name)
	}
	g, err := e.Graph(req.GraphID)
	if err != nil {
		return rrset.Result{}, err
	}
	atomic.AddInt64(&e.ctr.SeedQueries, 1)
	res, err := rrset.SelectSeedsContext(ctx, g, req.K, rrset.Options{
		Epsilon:    req.Epsilon,
		Ell:        req.Ell,
		Seed:       req.Seed,
		Workers:    e.workersFor(req.Workers),
		MaxSamples: req.MaxSamples,
	})
	if err != nil {
		return rrset.Result{}, e.noteRequestErr(err)
	}
	return res, nil
}

// EstimateRequest asks for Monte-Carlo estimates of the boosted spread
// σ_S(B) and the boost of influence Δ_S(B) on a registered graph.
type EstimateRequest struct {
	GraphID string  `json:"graph"`
	Seeds   []int32 `json:"seeds"`
	Boost   []int32 `json:"boost,omitempty"`
	// Mode selects the diffusion model: "" or "ic" runs fresh Monte-
	// Carlo under the influence boosting (IC) model; a simulation mode
	// ("lt", "sir", "kthresh") evaluates on the cached profile pool for
	// (graph, mode, seeds) — the same pool that mode's boost queries
	// use, so a warm pool answers both. "lb" is selection-only and is
	// rejected here.
	Mode string `json:"mode,omitempty"`
	// Recovery is mode:"sir"'s per-round recovery probability γ in
	// (0, 1]; rejected for every other mode.
	Recovery float64 `json:"recovery,omitempty"`
	// Threshold is mode:"kthresh"'s uniform activation threshold τ >= 1;
	// rejected for every other mode.
	Threshold int `json:"threshold,omitempty"`
	// Content optionally scales transmission by content properties; see
	// BoostRequest.Content.
	Content *model.Content `json:"content,omitempty"`
	// Sims is the simulation count. For the simulation modes it is
	// lazy: omitted (<= 0), an existing pool is reused at whatever size
	// it has — an estimate never silently triggers an expensive
	// extension — and only a cold build samples the 10000-profile
	// default.
	Sims    int    `json:"sims,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	Workers int    `json:"workers,omitempty"`

	// MaxLatencyMS and MaxError opt the request into the tiered read
	// path (tier.go): the engine serves the cheapest tier consistent
	// with the knobs instead of always running the full evaluation.
	// MaxLatencyMS is a hard budget in milliseconds — tiers whose
	// calibrated latency exceeds it are never chosen, down to the
	// closed-form tier 0 if need be. MaxError is a best-effort relative
	// error target, judged against a per-snapshot calibration (the first
	// such request runs all tiers once to measure them). Both zero (the
	// default) bypasses tiering entirely: the request runs the exact
	// pre-tier path, bit for bit.
	MaxLatencyMS float64 `json:"max_latency_ms,omitempty"`
	MaxError     float64 `json:"max_error,omitempty"`
}

// EstimateCI is tier 1's uncertainty report for the headline quantity
// (Δ when the request has a boost set, σ otherwise).
type EstimateCI struct {
	// Half is the 95% confidence half-width around the reported mean
	// (normal approximation; Student-t below 30 simulations).
	Half float64 `json:"half_width"`
	// Median is the sample median over the Sims simulations.
	Median float64 `json:"median"`
	Sims   int     `json:"sims"`
}

// EstimateResult reports the two Monte-Carlo estimates.
type EstimateResult struct {
	// Spread is σ_S(B), the expected boosted spread.
	Spread float64 `json:"spread"`
	// Boost is Δ_S(B), estimated with coupled possible worlds.
	Boost float64 `json:"boost"`
	// CacheHit reports whether a mode:"lt" estimate was served from an
	// already-built profile pool (IC estimates are never cached).
	CacheHit bool `json:"cache_hit,omitempty"`
	// Tier is the estimator that served the query: 0 = closed-form
	// two-hop approximation (no error guarantee), 1 = small-sample
	// Monte-Carlo, 2 = full evaluation. Requests without tiering knobs
	// are always tier 2.
	Tier int `json:"tier"`
	// CI is tier 1's confidence report; nil for tiers 0 and 2.
	CI *EstimateCI `json:"ci,omitempty"`
	// ErrorTargetMet reports whether the tier that served the query is
	// at least as accurate as the one MaxError asked for. It is false
	// exactly when a MaxLatencyMS budget forced a cheaper tier than the
	// error target fits — the one case where the knobs conflict and
	// latency silently won before this field existed. Requests without a
	// MaxError target (including knobless exact requests) always report
	// true.
	ErrorTargetMet bool `json:"error_target_met"`
	// Degraded reports that server admission pressure forced the query
	// down to the cheapest tier its mode supports instead of shedding
	// it: the answer is served, but at lower fidelity than the request's
	// knobs (or their absence) asked for. ErrorTargetMet is reported
	// against the tier that actually served the query.
	Degraded bool `json:"degraded,omitempty"`
}

// Estimate runs spread/boost estimation. Requests with a tiering knob
// set (MaxLatencyMS / MaxError) are routed through the tiered read
// path; everything else runs the full evaluation and reports tier 2.
// Knobless requests trivially meet their (absent) error target.
func (e *Engine) Estimate(req EstimateRequest) (EstimateResult, error) {
	return e.EstimateContext(context.Background(), req)
}

// EstimateContext is Estimate with cooperative cancellation (threaded
// into pool builds and the Monte-Carlo loops like BoostContext).
func (e *Engine) EstimateContext(ctx context.Context, req EstimateRequest) (EstimateResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	spec, err := resolveSpec(req.Mode, model.Params{Recovery: req.Recovery, Threshold: req.Threshold}, req.Content)
	if err != nil {
		return EstimateResult{}, err
	}
	if spec.sim == nil && spec.prrMode == prr.ModeLB {
		return EstimateResult{}, fmt.Errorf("engine: mode \"lb\" is selection-only — estimate under mode \"ic\" (both diffuse identically)")
	}
	var out EstimateResult
	if req.MaxLatencyMS > 0 || req.MaxError > 0 {
		out, err = e.estimateTiered(ctx, spec, req)
	} else {
		out, err = e.estimateTier2(ctx, spec, req)
		out.Tier = 2
		out.ErrorTargetMet = true
	}
	if err != nil {
		return EstimateResult{}, err
	}
	e.countEstimate(out.Tier, spec)
	return out, nil
}

// EstimateDegraded serves an estimate at the cheapest tier the mode
// supports, regardless of the request's tiering knobs — the server's
// admission-control pressure valve. Tier 0 is closed-form (no
// sampling, microseconds); modes that decline tier 0 (sir; kthresh at
// τ >= 2) are served at tier 1's fixed small sample budget. The result
// carries Degraded=true so callers can tell fidelity was traded for
// availability.
func (e *Engine) EstimateDegraded(ctx context.Context, req EstimateRequest) (EstimateResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	spec, err := resolveSpec(req.Mode, model.Params{Recovery: req.Recovery, Threshold: req.Threshold}, req.Content)
	if err != nil {
		return EstimateResult{}, err
	}
	if spec.sim == nil && spec.prrMode == prr.ModeLB {
		return EstimateResult{}, fmt.Errorf("engine: mode \"lb\" is selection-only — estimate under mode \"ic\" (both diffuse identically)")
	}
	out, err := e.estimateFloor(ctx, spec, req)
	if err != nil {
		return out, err
	}
	out.Degraded = true
	// Degraded answers only meet an explicit error target by luck; report
	// the honest default (no target ⇒ trivially met, like tier dispatch).
	out.ErrorTargetMet = req.MaxError <= 0
	e.countEstimate(out.Tier, spec)
	atomic.AddInt64(&e.ctr.DegradedEstimates, 1)
	return out, nil
}

// estimateTier2 is the full evaluation: fresh Monte-Carlo for mode
// ""/"ic", the cached profile pool for the simulation modes. The
// knobless dispatch above and the tiered path both funnel here, so a
// tiered request that lands on tier 2 answers bit-identically to a
// knobless one.
func (e *Engine) estimateTier2(ctx context.Context, spec *modeSpec, req EstimateRequest) (EstimateResult, error) {
	if spec.sim != nil {
		return e.estimateSim(ctx, spec, req)
	}
	g, err := e.Graph(req.GraphID)
	if err != nil {
		return EstimateResult{}, err
	}
	if g, err = spec.content.Apply(g); err != nil {
		return EstimateResult{}, err
	}
	opt := diffusion.Options{
		Sims:    req.Sims,
		Seed:    req.Seed,
		Workers: e.workersFor(req.Workers),
	}
	// The IC Monte-Carlo is uncancelable once launched (stateless, no
	// cache to protect); honor ctx between the two estimation legs.
	if err := ctx.Err(); err != nil {
		return EstimateResult{}, e.noteRequestErr(err)
	}
	spread, err := diffusion.EstimateSpread(g, req.Seeds, req.Boost, opt)
	if err != nil {
		return EstimateResult{}, err
	}
	out := EstimateResult{Spread: spread}
	if len(req.Boost) > 0 {
		if err := ctx.Err(); err != nil {
			return EstimateResult{}, e.noteRequestErr(err)
		}
		boost, err := diffusion.EstimateBoost(g, req.Seeds, req.Boost, opt)
		if err != nil {
			return EstimateResult{}, err
		}
		out.Boost = boost
	}
	return out, nil
}

// estimateSim evaluates σ̂ and Δ̂ under a pooled simulation model on
// the cached profile pool for (graph snapshot, mode, seed set),
// acquired exactly like a boost query in the same mode would — so
// estimates issued after a boost query (or vice versa) hit the same
// warm pool, and both legs of Δ̂ share possible worlds (coupled,
// low-variance). acquire returns holding ent.mu.RLock, which covers the
// ent.pool reads below.
// kboost:holds mu
func (e *Engine) estimateSim(ctx context.Context, spec *modeSpec, req EstimateRequest) (EstimateResult, error) {
	g, version, err := e.snapshotFor(req.GraphID)
	if err != nil {
		return EstimateResult{}, err
	}
	seeds := canonicalSeeds(req.Seeds)
	if err := validateSimSeeds(g, seeds); err != nil {
		return EstimateResult{}, err
	}
	for _, v := range req.Boost {
		if v < 0 || int(v) >= g.N() {
			return EstimateResult{}, fmt.Errorf("engine: boost node %d out of range [0,%d)", v, g.N())
		}
	}
	ent, a, err := e.acquire(ctx, &poolReq{
		graphID: req.GraphID, version: version, seeds: seeds, spec: spec,
		rg: &reqGraph{base: g, content: spec.content}, sc: e.simCtr(spec.name),
		size: sizing{opt: core.Options{Seed: req.Seed, Workers: e.workersFor(req.Workers)}.WithDefaults(), sims: req.Sims},
	})
	if err != nil {
		return EstimateResult{}, err
	}
	defer ent.mu.RUnlock()
	p := ent.pool.(simPool)
	spread, err := p.EstimateSpread(req.Boost)
	if err != nil {
		return EstimateResult{}, err
	}
	out := EstimateResult{Spread: spread, CacheHit: a.hit}
	if len(req.Boost) > 0 {
		// Differenced on the pool's integer activation sums, so it agrees
		// bit-for-bit with the Δ̂ a boost query reports for the same set.
		boost, err := p.EstimateBoost(req.Boost)
		if err != nil {
			return EstimateResult{}, err
		}
		out.Boost = boost
	}
	return out, nil
}
