package graph_test

import (
	"testing"

	"github.com/kboost/kboost/internal/dataset"
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rng"
)

// patchChurnGraph returns the graph perfbench's patch_churn workload
// serves: the flickr stand-in at scale 0.01, β 2, graph seed 1. The
// benchmarks live in an external test package because dataset imports
// graph.
func patchChurnGraph(b *testing.B) *graph.Graph {
	b.Helper()
	spec, err := dataset.ByName("flickr")
	if err != nil {
		b.Fatal(err)
	}
	g, err := spec.Generate(0.01, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchDeltas applies fwd and back in turn, so every iteration patches
// the same graph.
func benchDeltas(b *testing.B, g *graph.Graph, fwd, back *graph.EdgeDelta) {
	graphs := [2]*graph.Graph{g, nil}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := fwd
		if i%2 == 1 {
			d = back
		}
		ng, _, err := graphs[i%2].ApplyDelta(d)
		if err != nil {
			b.Fatal(err)
		}
		graphs[(i+1)%2] = ng
	}
}

// BenchmarkApplyDelta measures one PATCH's graph rebuild on the
// patch_churn graph: a reweight of 0.5% of the edges, spread evenly
// over the edge list, alternating with its inverse.
func BenchmarkApplyDelta(b *testing.B) {
	g := patchChurnGraph(b)
	edges := g.Edges()
	stride := 200 // 0.5% of the edges
	fwd, back := &graph.EdgeDelta{}, &graph.EdgeDelta{}
	for i := stride / 2; i < len(edges); i += stride {
		e := edges[i]
		back.Reweight = append(back.Reweight, e)
		e.P /= 2
		fwd.Reweight = append(fwd.Reweight, e)
	}
	if len(fwd.Reweight) == 0 {
		b.Fatal("empty delta")
	}
	benchDeltas(b, g, fwd, back)
}

// BenchmarkApplyDeltaStructural is BenchmarkApplyDelta for a delta that
// changes the edge set: it removes 0.5% of the edges, spread evenly
// over the edge list, and adds as many new random edges, alternating
// with the inverse delta.
func BenchmarkApplyDeltaStructural(b *testing.B) {
	g := patchChurnGraph(b)
	edges := g.Edges()
	stride := 200 // 0.5% of the edges
	fwd, back := &graph.EdgeDelta{}, &graph.EdgeDelta{}
	for i := stride / 2; i < len(edges); i += stride {
		e := edges[i]
		fwd.Remove = append(fwd.Remove, graph.EdgeKey{From: e.From, To: e.To})
		back.Add = append(back.Add, e)
	}
	r := rng.New(1)
	n := int32(g.N())
	added := map[graph.EdgeKey]bool{}
	for len(fwd.Add) < len(fwd.Remove) {
		k := graph.EdgeKey{From: r.Int31n(n), To: r.Int31n(n)}
		if _, _, ok := g.FindEdge(k.From, k.To); ok || k.From == k.To || added[k] {
			continue
		}
		added[k] = true
		fwd.Add = append(fwd.Add, graph.Edge{From: k.From, To: k.To, P: 0.1, PBoost: 0.19})
		back.Remove = append(back.Remove, k)
	}
	if len(fwd.Remove) == 0 {
		b.Fatal("empty delta")
	}
	benchDeltas(b, g, fwd, back)
}
