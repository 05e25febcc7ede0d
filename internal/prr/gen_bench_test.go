package prr

import (
	"testing"

	"github.com/kboost/kboost/internal/dataset"
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rng"
)

// genBenchGraph is the flixster stand-in (scale 0.01) with its 20 most
// influential seeds, the graph the generation benchmarks sample from.
func genBenchGraph(b *testing.B) (*graph.Graph, []int32) {
	b.Helper()
	spec, err := dataset.ByName("flixster")
	if err != nil {
		b.Fatal(err)
	}
	g, err := spec.Generate(0.01, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g, dataset.InfluentialSeeds(g, 20)
}

// BenchmarkPRRGeneration measures raw PRR-graph generation+compression
// throughput (the sampling phase's inner loop).
func BenchmarkPRRGeneration(b *testing.B) {
	g, seeds := genBenchGraph(b)
	gen, err := NewGenerator(g, seeds, 20, ModeFull)
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
	g, seeds := genBenchGraph(b)
	gen, err := NewGenerator(g, seeds, 20, ModeLB)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Generate(r)
	}
}

// BenchmarkAblationPruning quantifies the distance-pruning of Algorithm
// 1: small k prunes aggressively, large k explores more edges.
func BenchmarkAblationPruning(b *testing.B) {
	g, seeds := genBenchGraph(b)
	for _, k := range []int{1, 5, 100} {
		b.Run(map[int]string{1: "k=1", 5: "k=5", 100: "k=100"}[k], func(b *testing.B) {
			gen, err := NewGenerator(g, seeds, k, ModeFull)
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
