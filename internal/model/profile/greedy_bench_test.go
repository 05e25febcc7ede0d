package profile

import (
	"testing"

	"github.com/kboost/kboost/internal/dataset"
)

// BenchmarkCandidates measures the default greedy candidate pool on
// the graph perfbench's patch_churn workload serves (flickr stand-in,
// scale 0.01, β 2, graph seed 1) with its 5 influential seeds and
// k = 5: the shortlist every lt, sir and kthresh boost ranks before
// its greedy runs.
func BenchmarkCandidates(b *testing.B) {
	spec, err := dataset.ByName("flickr")
	if err != nil {
		b.Fatal(err)
	}
	g, err := spec.Generate(0.01, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	seedMask := make([]bool, g.N())
	for _, s := range dataset.InfluentialSeeds(g, 5) {
		seedMask[s] = true
	}
	const k = 5
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := Candidates(g, seedMask, k, 0); len(c) != CandidateCap(k, 0) {
			b.Fatalf("%d candidates, want %d", len(c), CandidateCap(k, 0))
		}
	}
}
