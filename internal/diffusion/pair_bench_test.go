package diffusion_test

import (
	"testing"

	"github.com/kboost/kboost/internal/dataset"
	"github.com/kboost/kboost/internal/diffusion"
	"github.com/kboost/kboost/internal/rng"
)

// BenchmarkPairOnce measures one coupled base/boosted world on the two
// perfbench graphs (scale 0.01 or 0.02, beta 2, graph seed 1): dense is
// warm_reads' digg stand-in (avg p 0.24), where tier-1 ic estimates
// spend their time, and sparse is patch_churn's flickr stand-in (avg p
// 0.013). The seeds are the 5 most influential nodes and the boost set
// is 8 random non-seed nodes. Each iteration reseeds one stream per
// world, as EstimateSamples does.
func BenchmarkPairOnce(b *testing.B) {
	for _, bc := range []struct {
		name, dataset string
		scale         float64
	}{
		{"dense", "digg", 0.02},
		{"sparse", "flickr", 0.01},
	} {
		b.Run(bc.name, func(b *testing.B) {
			spec, err := dataset.ByName(bc.dataset)
			if err != nil {
				b.Fatal(err)
			}
			g, err := spec.Generate(bc.scale, 2, 1)
			if err != nil {
				b.Fatal(err)
			}
			seeds := dataset.InfluentialSeeds(g, 5)
			isSeed := diffusion.MaskFromSet(g.N(), seeds)
			boost := make([]bool, g.N())
			pick := rng.New(2)
			for chosen := 0; chosen < 8; {
				if v := pick.Intn(g.N()); !isSeed[v] && !boost[v] {
					boost[v] = true
					chosen++
				}
			}
			sim := diffusion.NewSimulator(g)
			var r rng.Source
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.ReseedStream(1, uint64(i))
				sim.PairOnce(seeds, boost, &r)
			}
		})
	}
}
