// Package kboost is a Go implementation of the k-boosting problem from
// "Boosting Information Spread: An Algorithmic Approach" (Yishi Lin,
// Wei Chen, John C.S. Lui — ICDE 2017 / IEEE TKDE extended version).
//
// # The problem
//
// Classic influence maximization picks k seed users to start a cascade.
// k-boosting is complementary: the seeds S are given, and the goal is to
// pick k users to "boost" — users who, once boosted (coupons, ads,
// incentives), are more likely to be influenced by their friends. Every
// edge (u,v) carries two probabilities p(u,v) < p'(u,v); a boosted v is
// influenced by a newly-active u with probability p'(u,v). The objective
// is the boost of influence Δ_S(B) = σ_S(B) − σ_S(∅), which is
// NP-hard to maximize, #P-hard to evaluate, and — unlike the classic
// objective — neither submodular nor supermodular.
//
// # What the library provides
//
//   - PRRBoost and PRRBoostLB: the paper's approximation algorithms for
//     general graphs, built on Potentially Reverse Reachable graphs, the
//     IMM sampling machinery, and the sandwich approximation. Both carry
//     a data-dependent factor (1−1/e−ε)·μ(B*)/Δ_S(B*).
//   - GreedyBoost and DPBoost for bidirected trees: an O(kn) greedy
//     using an O(n) exact computation of the boosted spread, and a
//     rounded dynamic program that is an FPTAS.
//   - Classic influence maximization (SelectSeeds, RR-set/IMM based),
//     used to pick seed sets and as the MoreSeeds baseline.
//   - The paper's heuristic baselines (HighDegree variants, PageRank,
//     MoreSeeds) for comparison.
//   - Monte-Carlo estimation of spreads and boosts under the influence
//     boosting model, exact enumeration for small graphs, synthetic
//     graph/tree generators and scaled stand-ins for the paper's
//     datasets, and an experiment harness regenerating every table and
//     figure of the paper's evaluation (cmd/boostexp).
//
// # Quick start
//
//	g, _ := kboost.GenerateDataset("digg", 0.01, 2, 1) // 1% scale stand-in
//	seeds, _ := kboost.SelectSeeds(g, 10, kboost.SeedOptions{})
//	res, _ := kboost.PRRBoost(g, seeds.Seeds, kboost.BoostOptions{K: 50})
//	boost, _ := kboost.EstimateBoost(g, seeds.Seeds, res.BoostSet, kboost.SimOptions{})
//	fmt.Printf("boosting %d users raises the spread by %.1f\n", 50, boost)
//
// All randomized components take explicit seeds and are deterministic
// for a fixed (seed, workers) pair.
//
// # Serving repeated queries: the Engine
//
// PRRBoost rebuilds its PRR-graph pool on every call. For workloads
// that issue many what-if queries over a fixed network — different k,
// different seed sets, tighter ε — the Engine amortizes that cost: it
// holds registered graph snapshots and an LRU cache of PRR pools
// (bounded by entry count and by exact resident pool bytes — pool
// storage is arena-backed, flat arrays rather than per-sketch heap
// objects, so the byte accounting matches real memory), deduplicates
// concurrent identical queries, and grows a cached pool in place when a
// later query needs more samples. Pool growth itself is sharded: each
// worker samples into a private arena, merged in deterministic worker
// order, so a pool's contents are bit-identical for any fixed
// (seed, workers) pair regardless of scheduling. Warm selection is
// incremental too: each pool maintains a persistent Δ̂ selection index,
// concurrent warm queries on one pool select in parallel, and a
// per-pool result cache keyed by (pool generation, k) lets an identical
// repeat query skip selection entirely (ResultCached reports this).
//
//	eng := kboost.NewEngine(kboost.EngineOptions{})
//	_ = eng.RegisterGraph("prod", g)
//	res, _ := eng.Boost(kboost.EngineBoostRequest{
//		GraphID: "prod", Seeds: seeds, K: 50,
//	})
//	warm, _ := eng.Boost(kboost.EngineBoostRequest{ // served from cache
//		GraphID: "prod", Seeds: seeds, K: 50,
//	})
//	fmt.Println(warm.CacheHit, warm.NewSamples) // true 0
//
// The Engine also serves pluggable pooled diffusion models: a boost
// query with Mode "lt" (boosted Linear Threshold, see LTPool), "sir"
// (boosted SIR epidemic percolation, Recovery knob) or "kthresh"
// (k-threshold complex contagion, Threshold knob) runs the pooled
// Monte-Carlo greedy over a cached pool of pre-sampled possible worlds,
// reusing sampled worlds across queries the same way PRR pools are
// reused — with the caveat that the pooled models carry no
// approximation guarantee. Requests may additionally attach an
// EngineContent modifier (virality/credibility scalars) to model
// content-dependent transmission; distinct content never shares
// sampled worlds.
//
// Estimates are latency-tiered: an EngineEstimateRequest with
// MaxLatencyMS or MaxError set is served by the cheapest of a
// closed-form two-hop approximation (microseconds, pool-free, no
// guarantee), a small Monte-Carlo sample with a confidence interval,
// or the full evaluation — calibrated per graph snapshot and mode.
// When a hard latency cap forces a cheaper tier than the error target
// fits, the result's ErrorTargetMet field reports the sacrifice.
//
// Graphs served by an Engine are live: UploadGraph installs an
// immutable snapshot under a monotonically increasing version
// (replacing any previous snapshot of the same id), DeleteGraph removes
// one, and every cached pool and result is keyed to the snapshot
// version it was computed against — a replacement atomically
// invalidates the replaced version's warm state, so no query ever mixes
// two snapshots.
//
// cmd/kboostd wraps the same Engine in an HTTP JSON API (POST
// /v1/boost, /v1/seeds, /v1/estimate, GET /v1/stats, plus the
// bearer-token-gated graph lifecycle under /v1/graphs); NewEngineServer
// exposes that handler for embedding.
package kboost

import (
	"context"
	"fmt"
	"io"
	"os"

	"github.com/kboost/kboost/internal/baselines"
	"github.com/kboost/kboost/internal/core"
	"github.com/kboost/kboost/internal/dataset"
	"github.com/kboost/kboost/internal/diffusion"
	"github.com/kboost/kboost/internal/engine"
	"github.com/kboost/kboost/internal/exact"
	"github.com/kboost/kboost/internal/gen"
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/rrset"
	"github.com/kboost/kboost/internal/tree"
)

// Graph is a directed influence graph with dual edge probabilities
// (base and boosted) in CSR form. Build one with NewBuilder, load one
// with ReadGraph*, or generate one with GenerateDataset / the gen
// helpers.
type Graph = graph.Graph

// Edge is one directed influence edge.
type Edge = graph.Edge

// Builder incrementally constructs a Graph.
type Builder = graph.Builder

// NewBuilder returns a Builder for a graph with n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a Graph from an edge list.
func FromEdges(n int, edges []Edge) (*Graph, error) { return graph.FromEdges(n, edges) }

// ReadGraphText parses the text interchange format ("n m" header, then
// "from to p pBoost" lines).
func ReadGraphText(r io.Reader) (*Graph, error) { return graph.ReadText(r) }

// ReadGraphBinary parses the compact binary format.
func ReadGraphBinary(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }

// GraphReadLimits bounds what the graph codecs will ingest before any
// size-proportional allocation happens; always set both fields when
// parsing untrusted input.
type GraphReadLimits = graph.ReadLimits

// ReadGraphTextLimited is ReadGraphText with ingestion limits enforced
// before allocation.
func ReadGraphTextLimited(r io.Reader, lim GraphReadLimits) (*Graph, error) {
	return graph.ReadTextLimited(r, lim)
}

// ReadGraphBinaryLimited is ReadGraphBinary with ingestion limits
// enforced before allocation.
func ReadGraphBinaryLimited(r io.Reader, lim GraphReadLimits) (*Graph, error) {
	return graph.ReadBinaryLimited(r, lim)
}

// LoadGraph opens path and parses it, choosing the codec by a ".bin"
// suffix sniff on the magic bytes.
func LoadGraph(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var magic [4]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return nil, fmt.Errorf("kboost: reading %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if string(magic[:]) == "KBG1" {
		return graph.ReadBinary(f)
	}
	return graph.ReadText(f)
}

// ReadEdgeList ingests a plain "from to" edge list (SNAP-style network
// dump) and assigns influence probabilities with the named model:
// "trivalency", "wc" (weighted cascade), "const:<p>" or "expmean:<m>",
// with boosted probabilities p' = 1-(1-p)^beta. Node ids may be sparse;
// the returned slice maps new dense ids back to the original ids.
func ReadEdgeList(r io.Reader, probModel string, beta float64, seed uint64) (*Graph, []int64, error) {
	assign, err := gen.ParseProbModel(probModel)
	if err != nil {
		return nil, nil, err
	}
	return gen.ReadEdgeList(r, assign, beta, rng.New(seed))
}

// GenerateDataset builds a scaled synthetic stand-in for one of the
// paper's four datasets ("digg", "flixster", "twitter", "flickr") with
// boosting parameter beta (p' = 1-(1-p)^beta).
func GenerateDataset(name string, scale, beta float64, seed uint64) (*Graph, error) {
	spec, err := dataset.ByName(name)
	if err != nil {
		return nil, err
	}
	return spec.Generate(scale, beta, seed)
}

// DatasetNames lists the available dataset stand-ins.
func DatasetNames() []string {
	names := make([]string, len(dataset.All))
	for i, s := range dataset.All {
		names[i] = s.Name
	}
	return names
}

// InfluentialSeeds returns count high-out-weight nodes (a cheap proxy
// ordering; use SelectSeeds for the IMM selection).
func InfluentialSeeds(g *Graph, count int) []int32 { return dataset.InfluentialSeeds(g, count) }

// RandomSeeds returns count uniformly random distinct seeds.
func RandomSeeds(g *Graph, count int, seed uint64) []int32 {
	return dataset.RandomSeeds(g, count, seed)
}

// GenerateBidirectedTree builds a random bidirected tree with n nodes
// using trivalency probabilities {0.1, 0.01, 0.001} and boosting
// parameter beta, mirroring the paper's synthetic tree setup. shape is
// "binary" (complete binary tree) or "random".
func GenerateBidirectedTree(n int, shape string, beta float64, seed uint64) (*Graph, error) {
	r := rng.New(seed)
	var parents []int32
	switch shape {
	case "binary":
		parents = gen.CompleteBinaryTreeParents(n)
	case "random":
		var err error
		parents, err = gen.RandomTreeParents(n, 0, r)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("kboost: unknown tree shape %q (want binary or random)", shape)
	}
	return gen.BidirectedTree(parents, gen.Trivalency(), beta, r)
}

// --- boosting on general graphs ---

// BoostOptions configures PRRBoost / PRRBoostLB.
type BoostOptions = core.Options

// BoostResult reports a boosting run.
type BoostResult = core.Result

// PRRBoost runs the paper's Algorithm 2: PRR-graph sampling sized by
// IMM, greedy maximization of both the submodular lower bound μ and the
// true objective Δ̂, and the sandwich choice between them.
func PRRBoost(g *Graph, seeds []int32, opt BoostOptions) (*BoostResult, error) {
	return core.PRRBoost(g, seeds, opt)
}

// PRRBoostLB is the lower-bound-only variant: same approximation
// factor, faster and leaner (critical nodes only).
func PRRBoostLB(g *Graph, seeds []int32, opt BoostOptions) (*BoostResult, error) {
	return core.PRRBoostLB(g, seeds, opt)
}

// SandwichRatio estimates μ̂(B)/Δ̂(B), the data-dependent factor in the
// approximation guarantee, on a fresh PRR-graph pool.
func SandwichRatio(g *Graph, seeds, boost []int32, samples int, opt BoostOptions) (mu, delta, ratio float64, err error) {
	return core.SandwichRatio(g, seeds, boost, samples, opt)
}

// BudgetAllocationOptions configures the seeding-vs-boosting sweep.
type BudgetAllocationOptions = core.BudgetAllocationOptions

// MixPoint is one evaluated budget split.
type MixPoint = core.MixPoint

// BudgetAllocation explores spending a budget on seeds vs boosts
// (Section VII-C): for each fraction it IMM-selects seeds, PRR-Boosts
// the remainder, and estimates the boosted spread.
func BudgetAllocation(g *Graph, opt BudgetAllocationOptions) ([]MixPoint, error) {
	return core.BudgetAllocation(g, opt)
}

// --- the query-serving engine ---

// Engine is a long-lived, concurrency-safe boosting service: it holds
// registered graph snapshots and a bounded LRU cache of PRR-graph
// pools so repeated queries skip the sampling phase. See the package
// doc's "Serving repeated queries" section.
type Engine = engine.Engine

// EngineOptions configures NewEngine.
type EngineOptions = engine.Options

// EngineStats is a snapshot of an Engine's cache and query counters.
// Its cumulative counters (queries, tier serves, pool hits, repairs,
// shed and canceled requests, ...) live in the embedded
// engine.Counters block, so they read as st.PoolHits directly and
// encode flat into /v1/stats; SimModes holds the per-mode
// EngineSimModeStats blocks.
type EngineStats = engine.Stats

// EngineBoostRequest is one boosting query against a registered graph.
type EngineBoostRequest = engine.BoostRequest

// EngineBoostResult is a BoostResult plus cache provenance (CacheHit,
// NewSamples, ...).
type EngineBoostResult = engine.BoostResult

// EngineSeedsRequest asks an Engine for IMM-selected seeds.
type EngineSeedsRequest = engine.SeedsRequest

// EngineEstimateRequest asks an Engine for Monte-Carlo estimates.
// Setting MaxLatencyMS or MaxError opts into the tiered read path:
// the Engine serves the cheapest of three estimators (closed-form /
// small-sample / full) consistent with the knobs.
type EngineEstimateRequest = engine.EstimateRequest

// EngineEstimateResult reports them, plus which tier served the query
// and (for tier 1) a confidence interval.
type EngineEstimateResult = engine.EstimateResult

// EngineEstimateCI is tier 1's uncertainty report for the headline
// quantity of a tiered estimate.
type EngineEstimateCI = engine.EstimateCI

// EngineGraphInfo describes one registered snapshot (id, version,
// size), as listed by Engine.GraphInfos and GET /v1/graphs.
type EngineGraphInfo = engine.GraphInfo

// EngineUploadResult reports an accepted Engine.UploadGraph snapshot:
// its new version, whether it replaced a live snapshot, and how much
// warm pool state the replacement invalidated.
type EngineUploadResult = engine.UploadResult

// EdgeDelta is a batch of edge mutations (add / remove / reweight)
// applied to a registered snapshot by Engine.RepairGraph or PATCH
// /v1/graphs/{name}/edges.
type EdgeDelta = graph.EdgeDelta

// EngineRepairResult reports an accepted Engine.RepairGraph patch: the
// patched snapshot's descriptor, the delta's shape, and how the old
// version's cached pools were migrated (repaired vs dropped).
type EngineRepairResult = engine.RepairResult

// ErrUnknownGraph is returned (wrapped) by Engine methods when a
// request names a graph id that was never registered.
var ErrUnknownGraph = engine.ErrUnknownGraph

// ErrGraphChanged is returned (wrapped) by Engine.RepairGraph when the
// snapshot was replaced or deleted while the delta was being applied.
var ErrGraphChanged = engine.ErrGraphChanged

// NewEngine creates an Engine.
func NewEngine(opt EngineOptions) *Engine { return engine.New(opt) }

// EngineServer is the HTTP front end used by cmd/kboostd: POST
// /v1/boost, /v1/seeds, /v1/estimate and GET /v1/stats with JSON
// bodies, plus the graph lifecycle endpoints (GET /v1/graphs,
// GET/POST/PUT/DELETE /v1/graphs/{name}, PATCH
// /v1/graphs/{name}/edges; mutation requires the configured bearer
// token). It implements http.Handler.
type EngineServer = engine.Server

// EngineServerOptions configures NewEngineServer.
type EngineServerOptions = engine.ServerOptions

// NewEngineServer wraps an Engine in the HTTP front end.
func NewEngineServer(e *Engine, opt EngineServerOptions) *EngineServer {
	return engine.NewServer(e, opt)
}

// DefaultMaxInFlightCold and DefaultMaxInFlightWarm are the admission
// bounds kboostd applies unless overridden by flag; the library default
// (zero EngineServerOptions fields) leaves both lanes unbounded.
func DefaultMaxInFlightCold() int { return engine.DefaultMaxInFlightCold() }
func DefaultMaxInFlightWarm() int { return engine.DefaultMaxInFlightWarm() }

// --- classic influence maximization ---

// SeedOptions configures SelectSeeds.
type SeedOptions = rrset.Options

// SeedResult reports a seed selection.
type SeedResult = rrset.Result

// SelectSeeds runs RR-set/IMM influence maximization: k seeds with a
// (1-1/e-ε) guarantee with probability 1-1/n^ℓ.
func SelectSeeds(g *Graph, k int, opt SeedOptions) (SeedResult, error) {
	return rrset.SelectSeedsContext(context.Background(), g, k, opt)
}

// --- baselines ---

// HighDegreeGlobal returns the four weighted-degree candidate boost
// sets of the paper's HighDegreeGlobal baseline.
func HighDegreeGlobal(g *Graph, seeds []int32, k int) [][]int32 {
	return baselines.HighDegreeGlobal(g, seeds, k)
}

// HighDegreeLocal is HighDegreeGlobal restricted to nodes near seeds.
func HighDegreeLocal(g *Graph, seeds []int32, k int) [][]int32 {
	return baselines.HighDegreeLocal(g, seeds, k)
}

// PageRankBoost returns the top-k non-seed nodes by influence-PageRank.
func PageRankBoost(g *Graph, seeds []int32, k int) []int32 {
	return baselines.PageRankBoost(g, seeds, k, baselines.PageRankOptions{})
}

// MoreSeeds selects k extra influence-maximizing seeds and returns them
// as a (poor, per the paper) boost set.
func MoreSeeds(g *Graph, seeds []int32, k int, opt SeedOptions) ([]int32, error) {
	return baselines.MoreSeeds(g, seeds, k, opt)
}

// --- simulation ---

// SimOptions configures Monte-Carlo estimation.
type SimOptions = diffusion.Options

// EstimateSpread estimates σ_S(B), the expected boosted spread. boost
// may be nil for the plain IC spread.
func EstimateSpread(g *Graph, seeds, boost []int32, opt SimOptions) (float64, error) {
	return diffusion.EstimateSpread(g, seeds, boost, opt)
}

// EstimateBoost estimates Δ_S(B) with coupled possible worlds (much
// lower variance than differencing two spread estimates).
func EstimateBoost(g *Graph, seeds, boost []int32, opt SimOptions) (float64, error) {
	return diffusion.EstimateBoost(g, seeds, boost, opt)
}

// ExactSpread computes σ_S(B) by possible-world enumeration. It errors
// on graphs with more than exact.MaxEdges (16) edges; it exists as
// ground truth for tests and tiny examples.
func ExactSpread(g *Graph, seeds, boost []int32) (float64, error) {
	return exact.Spread(g, seeds, boost)
}

// BoostTarget selects the boosting variant: BoostReceivers is the
// paper's Definition 1 (boosted users are more easily influenced);
// BoostSenders is the remark's symmetric variant (boosted users are
// more influential).
type BoostTarget = diffusion.BoostTarget

// The two boosting variants.
const (
	BoostReceivers = diffusion.BoostReceivers
	BoostSenders   = diffusion.BoostSenders
)

// EstimateSpreadTarget estimates σ_S(B) under the chosen boost variant.
func EstimateSpreadTarget(g *Graph, seeds, boost []int32, target BoostTarget, opt SimOptions) (float64, error) {
	return diffusion.EstimateSpreadTarget(g, seeds, boost, target, opt)
}

// EstimateBoostTarget estimates Δ_S(B) under the chosen boost variant.
func EstimateBoostTarget(g *Graph, seeds, boost []int32, target BoostTarget, opt SimOptions) (float64, error) {
	return diffusion.EstimateBoostTarget(g, seeds, boost, target, opt)
}

// --- bidirected trees ---

// Tree is a bidirected tree with seed annotations.
type Tree = tree.Tree

// TreeFromGraph validates that g is a bidirected tree and converts it.
func TreeFromGraph(g *Graph, seeds []int32) (*Tree, error) { return tree.FromGraph(g, seeds) }

// TreeEvaluator computes exact boosted spreads on a tree in O(n).
type TreeEvaluator = tree.Evaluator

// NewTreeEvaluator returns an evaluator for t.
func NewTreeEvaluator(t *Tree) *TreeEvaluator { return tree.NewEvaluator(t) }

// GreedyResult reports a GreedyBoost run.
type GreedyResult = tree.GreedyResult

// GreedyBoost runs the paper's O(kn) tree greedy.
func GreedyBoost(t *Tree, k int) (*GreedyResult, error) { return tree.GreedyBoost(t, k) }

// DPOptions configures DPBoost.
type DPOptions = tree.DPOptions

// DPResult reports a DPBoost run.
type DPResult = tree.DPResult

// DPBoost runs the rounded dynamic program (FPTAS): the returned set
// satisfies Δ(B̃) ≥ OPT − ε·max(LB,1), i.e. (1−ε)·OPT when OPT ≥ 1.
func DPBoost(t *Tree, k int, opt DPOptions) (*DPResult, error) { return tree.DPBoost(t, k, opt) }
