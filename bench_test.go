package kboost

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benchmarks for the design choices DESIGN.md calls out. Each
// figure benchmark drives the same runner as cmd/boostexp, at a reduced
// scale so `go test -bench=.` finishes in minutes; crank the scale via
// the exp.Config fields when reproducing EXPERIMENTS.md numbers.

import (
	"context"
	"io"
	"testing"

	"github.com/kboost/kboost/internal/diffusion"
	"github.com/kboost/kboost/internal/exp"
	"github.com/kboost/kboost/internal/gen"
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/maxcover"
	"github.com/kboost/kboost/internal/prr"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/rrset"
	"github.com/kboost/kboost/internal/tree"
)

// benchConfig is the scaled-down harness configuration shared by the
// figure benchmarks.
func benchConfig() exp.Config {
	return exp.Config{
		Scale:      0.004,
		Datasets:   []string{"digg", "flixster"},
		KValues:    []int{5, 20},
		Sims:       500,
		MaxSamples: 20000,
		Seed:       1,
		TreeN:      511,
		TreeKs:     []int{10, 25},
		TreeEps:    []float64{0.5, 1.0},
	}
}

func runExperiment(b *testing.B, id string, cfg exp.Config) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := exp.Run(id, cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Datasets(b *testing.B)  { runExperiment(b, "table1", benchConfig()) }
func BenchmarkFig5BoostVsK(b *testing.B)    { runExperiment(b, "fig5", benchConfig()) }
func BenchmarkFig6RunningTime(b *testing.B) { runExperiment(b, "fig6", benchConfig()) }
func BenchmarkTable2Compression(b *testing.B) {
	runExperiment(b, "table2", benchConfig())
}
func BenchmarkFig7SandwichRatio(b *testing.B) { runExperiment(b, "fig7", benchConfig()) }
func BenchmarkFig8BoostParameter(b *testing.B) {
	cfg := benchConfig()
	cfg.Datasets = []string{"digg"} // five betas per dataset: keep one
	runExperiment(b, "fig8", cfg)
}
func BenchmarkFig9SandwichBeta(b *testing.B) {
	cfg := benchConfig()
	cfg.Datasets = []string{"digg"}
	runExperiment(b, "fig9", cfg)
}
func BenchmarkFig10RandomSeeds(b *testing.B) { runExperiment(b, "fig10", benchConfig()) }
func BenchmarkFig11RandomSeedsTime(b *testing.B) {
	runExperiment(b, "fig11", benchConfig())
}
func BenchmarkTable3CompressionRandom(b *testing.B) {
	runExperiment(b, "table3", benchConfig())
}
func BenchmarkFig12SandwichRandom(b *testing.B) { runExperiment(b, "fig12", benchConfig()) }
func BenchmarkFig13BudgetAllocation(b *testing.B) {
	cfg := benchConfig()
	cfg.Datasets = []string{"digg"}
	runExperiment(b, "fig13", cfg)
}
func BenchmarkFig14TreeGreedyVsDP(b *testing.B) { runExperiment(b, "fig14", benchConfig()) }
func BenchmarkFig15TreeSizes(b *testing.B)      { runExperiment(b, "fig15", benchConfig()) }

// --- component benchmarks ---

func benchGraph(b *testing.B, scale float64) *graph.Graph {
	b.Helper()
	g, err := GenerateDataset("flixster", scale, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkPRRGeneration measures raw PRR-graph generation+compression
// throughput (the sampling phase's inner loop).
func BenchmarkPRRGeneration(b *testing.B) {
	g := benchGraph(b, 0.01)
	seeds := InfluentialSeeds(g, 20)
	gen, err := prr.NewGenerator(g, seeds, 20, prr.ModeFull)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(7)
	edges := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := gen.Generate(r)
		edges += res.EdgesExamined
	}
	b.ReportMetric(float64(edges)/float64(b.N), "edges/op")
}

// BenchmarkPRRGenerationLB measures the leaner critical-nodes-only
// generation used by PRR-Boost-LB.
func BenchmarkPRRGenerationLB(b *testing.B) {
	g := benchGraph(b, 0.01)
	seeds := InfluentialSeeds(g, 20)
	gen, err := prr.NewGenerator(g, seeds, 20, prr.ModeLB)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Generate(r)
	}
}

// BenchmarkRRSetGeneration measures classic RR-set sampling.
func BenchmarkRRSetGeneration(b *testing.B) {
	g := benchGraph(b, 0.01)
	r := rng.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rrset.Generate(g, int32(r.Intn(g.N())), r)
	}
}

// BenchmarkDiffusionPair measures the coupled base/boosted simulation.
func BenchmarkDiffusionPair(b *testing.B) {
	g := benchGraph(b, 0.01)
	seeds := InfluentialSeeds(g, 20)
	boost := diffusion.MaskFromSet(g.N(), RandomSeeds(g, 50, 3))
	sim := diffusion.NewSimulator(g)
	r := rng.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.PairOnce(seeds, boost, r)
	}
}

// BenchmarkTreeExactSpread measures the O(n) tree evaluation.
func BenchmarkTreeExactSpread(b *testing.B) {
	g, err := GenerateBidirectedTree(4095, "binary", 2, 3)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := TreeFromGraph(g, InfluentialSeeds(g, 50))
	if err != nil {
		b.Fatal(err)
	}
	e := tree.NewEvaluator(tr)
	boost := RandomSeeds(g, 100, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Sigma(boost); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeGreedy measures Greedy-Boost end to end.
func BenchmarkTreeGreedy(b *testing.B) {
	g, err := GenerateBidirectedTree(2047, "binary", 2, 3)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := TreeFromGraph(g, InfluentialSeeds(g, 50))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.GreedyBoost(tr, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeDP measures DP-Boost end to end (ε=0.5).
func BenchmarkTreeDP(b *testing.B) {
	g, err := GenerateBidirectedTree(1023, "binary", 2, 3)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := TreeFromGraph(g, InfluentialSeeds(g, 30))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.DPBoost(tr, 25, tree.DPOptions{Epsilon: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benchmarks (design-choice validation) ---

// BenchmarkAblationPruning quantifies the distance-pruning of Algorithm
// 1: small k prunes aggressively, large k explores more edges.
func BenchmarkAblationPruning(b *testing.B) {
	g := benchGraph(b, 0.01)
	seeds := InfluentialSeeds(g, 20)
	for _, k := range []int{1, 5, 100} {
		b.Run(map[int]string{1: "k=1", 5: "k=5", 100: "k=100"}[k], func(b *testing.B) {
			gen, err := prr.NewGenerator(g, seeds, k, prr.ModeFull)
			if err != nil {
				b.Fatal(err)
			}
			r := rng.New(7)
			edges := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := gen.Generate(r)
				edges += res.EdgesExamined
			}
			b.ReportMetric(float64(edges)/float64(b.N), "edges/op")
		})
	}
}

// BenchmarkAblationCompression reports the raw-vs-compressed PRR sizes
// that justify the compression phase (Tables 2-3's ratio).
func BenchmarkAblationCompression(b *testing.B) {
	g := benchGraph(b, 0.01)
	seeds := InfluentialSeeds(g, 20)
	pool, err := prr.NewPool(g, seeds, 20, prr.ModeFull, 7, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pool.ExtendContext(context.Background(), (i+1)*2000); err != nil {
			b.Fatal(err)
		}
	}
	st := pool.Stats()
	b.ReportMetric(st.AvgRawEdges, "rawEdges/graph")
	b.ReportMetric(st.AvgCompEdges, "compEdges/graph")
	b.ReportMetric(st.CompressionRatio, "ratio")
}

// BenchmarkAblationLazyGreedy compares CELF (lazy) max-coverage against
// the naive re-evaluating greedy it replaces.
func BenchmarkAblationLazyGreedy(b *testing.B) {
	r := rng.New(3)
	const items, sets, k = 500, 5000, 25
	cov := maxcover.New(items)
	for s := 0; s < sets; s++ {
		size := 1 + r.Intn(6)
		set := make([]int32, 0, size)
		for j := 0; j < size; j++ {
			set = append(set, int32(r.Intn(items)))
		}
		cov.AddSet(set)
	}
	b.Run("celf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cov.Select(k, nil, nil)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			naiveGreedy(cov, k)
		}
	})
}

func naiveGreedy(c *maxcover.Coverage, k int) int {
	covered := make([]bool, c.NumSets())
	chosen := make([]bool, c.NumItems())
	total := 0
	for round := 0; round < k; round++ {
		best, bestGain := -1, 0
		for v := 0; v < c.NumItems(); v++ {
			if chosen[v] {
				continue
			}
			gain := 0
			for si, set := range c.Sets() {
				if covered[si] {
					continue
				}
				for _, item := range set {
					if int(item) == v {
						gain++
						break
					}
				}
			}
			if gain > bestGain {
				best, bestGain = v, gain
			}
		}
		if best < 0 || bestGain == 0 {
			break
		}
		chosen[best] = true
		total += bestGain
		for si, set := range c.Sets() {
			if covered[si] {
				continue
			}
			for _, item := range set {
				if int(item) == best {
					covered[si] = true
					break
				}
			}
		}
	}
	return total
}

// BenchmarkAblationWorkers measures parallel scaling of PRR pool
// generation.
func BenchmarkAblationWorkers(b *testing.B) {
	g := benchGraph(b, 0.01)
	seeds := InfluentialSeeds(g, 20)
	for _, w := range []int{1, 2} {
		name := map[int]string{1: "workers=1", 2: "workers=2"}[w]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pool, err := prr.NewPool(g, seeds, 20, prr.ModeFull, 7, w)
				if err != nil {
					b.Fatal(err)
				}
				if err := pool.ExtendContext(context.Background(), 5000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSampler compares the IMM sampling controller with
// the SSA-style adaptive controller on the same boosting instance,
// reporting the number of sketches each one decides to generate.
func BenchmarkAblationSampler(b *testing.B) {
	g := benchGraph(b, 0.004)
	seeds := InfluentialSeeds(g, 10)
	for _, adaptive := range []bool{false, true} {
		name := "imm"
		if adaptive {
			name = "adaptive"
		}
		b.Run(name, func(b *testing.B) {
			samples := 0
			for i := 0; i < b.N; i++ {
				res, err := PRRBoost(g, seeds, BoostOptions{
					K: 10, Seed: uint64(i) + 1, Adaptive: adaptive, MaxSamples: 200000,
				})
				if err != nil {
					b.Fatal(err)
				}
				samples += res.Samples
			}
			b.ReportMetric(float64(samples)/float64(b.N), "sketches/op")
		})
	}
}

// BenchmarkEngineWarmBoost measures a fully warm Engine boost query:
// cached pool, sized memo hit, and — for the repeated k — a result-cache
// hit that skips selection entirely. This is the steady-state latency a
// kboostd client sees for repeated what-if queries.
func BenchmarkEngineWarmBoost(b *testing.B) {
	g := benchGraph(b, 0.01)
	eng := NewEngine(EngineOptions{})
	if err := eng.RegisterGraph("bench", g); err != nil {
		b.Fatal(err)
	}
	req := EngineBoostRequest{
		GraphID: "bench", Seeds: InfluentialSeeds(g, 20), K: 20,
		Seed: 7, MaxSamples: 20000,
	}
	if _, err := eng.Boost(req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Boost(req)
		if err != nil {
			b.Fatal(err)
		}
		if !res.CacheHit || res.NewSamples != 0 {
			b.Fatal("warm query was not served from the cache")
		}
	}
}

// BenchmarkLTWarmBoost compares a cold mode:"lt" boost query — profile
// sampling plus the pooled greedy — against the warm repeat served from
// the cached pool and result cache. The warm/cold ratio is the speedup
// the LT serving path exists for (the acceptance bar is ≥ 3×; in
// practice the warm path is orders of magnitude faster).
func BenchmarkLTWarmBoost(b *testing.B) {
	g := benchGraph(b, 0.01)
	seeds := InfluentialSeeds(g, 20)
	sims := 10000
	if testing.Short() {
		sims = 1000
	}
	req := EngineBoostRequest{
		GraphID: "bench", Seeds: seeds, K: 20,
		Mode: "lt", Seed: 7, Sims: sims,
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := NewEngine(EngineOptions{})
			if err := eng.RegisterGraph("bench", g); err != nil {
				b.Fatal(err)
			}
			res, err := eng.Boost(req)
			if err != nil {
				b.Fatal(err)
			}
			if res.CacheHit || res.NewSamples != sims {
				b.Fatal("cold query did not sample a fresh pool")
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		eng := NewEngine(EngineOptions{})
		if err := eng.RegisterGraph("bench", g); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Boost(req); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := eng.Boost(req)
			if err != nil {
				b.Fatal(err)
			}
			if !res.CacheHit || res.NewSamples != 0 {
				b.Fatal("warm query was not served from the cache")
			}
		}
	})
	// warm-selection isolates the pooled greedy itself: pool hit but
	// result-cache miss, the cost a warm query with a fresh k pays. The
	// incremental-vs-naive selection comparison lives next to the
	// implementation in internal/lt's BenchmarkLTSelectWarm.
	b.Run("warm-selection", func(b *testing.B) {
		pool, err := NewLTPool(g, seeds, 7, 0)
		if err != nil {
			b.Fatal(err)
		}
		pool.Extend(sims)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := pool.GreedyBoost(20, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLTWarmBoostShort is the gated counterpart of
// BenchmarkLTWarmBoost. The full-size cold sub-benchmark completes 1–9
// iterations per run — too few for the regression gate to tell signal
// from scheduler noise — so the gate re-runs this fixed small variant
// instead (≥ 20 iterations per sub at the default benchtime). Sizes are
// deliberately not testing.Short()-gated: the gate compares against a
// committed baseline, so dimensions must match on every machine.
func BenchmarkLTWarmBoostShort(b *testing.B) {
	g := benchGraph(b, 0.002)
	seeds := InfluentialSeeds(g, 10)
	const sims = 600
	req := EngineBoostRequest{
		GraphID: "bench", Seeds: seeds, K: 10,
		Mode: "lt", Seed: 7, Sims: sims,
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := NewEngine(EngineOptions{})
			if err := eng.RegisterGraph("bench", g); err != nil {
				b.Fatal(err)
			}
			res, err := eng.Boost(req)
			if err != nil {
				b.Fatal(err)
			}
			if res.CacheHit || res.NewSamples != sims {
				b.Fatal("cold query did not sample a fresh pool")
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		eng := NewEngine(EngineOptions{})
		if err := eng.RegisterGraph("bench", g); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Boost(req); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := eng.Boost(req)
			if err != nil {
				b.Fatal(err)
			}
			if !res.CacheHit || res.NewSamples != 0 {
				b.Fatal("warm query was not served from the cache")
			}
		}
	})
}

// BenchmarkLTPoolExtend measures LT profile-pool growth: one-shot
// generation versus the same total arriving in ten batches (the
// Engine's warm-extension pattern), which exercises the frontier-index
// merge repeatedly.
func BenchmarkLTPoolExtend(b *testing.B) {
	g := benchGraph(b, 0.01)
	seeds := InfluentialSeeds(g, 20)
	total := 10000
	if testing.Short() {
		total = 2000
	}
	run := func(b *testing.B, steps int) {
		for i := 0; i < b.N; i++ {
			pool, err := NewLTPool(g, seeds, 7, 0)
			if err != nil {
				b.Fatal(err)
			}
			for s := 1; s <= steps; s++ {
				pool.Extend(total * s / steps)
			}
		}
	}
	b.Run("oneshot", func(b *testing.B) { run(b, 1) })
	b.Run("staged10", func(b *testing.B) { run(b, 10) })
}

// BenchmarkGeneratorScaleFree measures synthetic topology generation.
func BenchmarkGeneratorScaleFree(b *testing.B) {
	r := rng.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.ScaleFree(5000, 5, 0.3, r); err != nil {
			b.Fatal(err)
		}
	}
}
