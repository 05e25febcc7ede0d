package graph_test

import (
	"testing"

	"github.com/kboost/kboost/internal/dataset"
	"github.com/kboost/kboost/internal/graph"
)

// BenchmarkApplyDelta measures one PATCH's graph rebuild on the graph
// perfbench's patch_churn workload serves (flickr stand-in, scale 0.01,
// β 2, graph seed 1): a reweight of 0.5% of the edges, spread evenly
// over the edge list, alternating with its inverse so every iteration
// patches the same graph. It lives in an external test package because
// dataset imports graph.
func BenchmarkApplyDelta(b *testing.B) {
	spec, err := dataset.ByName("flickr")
	if err != nil {
		b.Fatal(err)
	}
	g, err := spec.Generate(0.01, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
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
