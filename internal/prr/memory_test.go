package prr

import (
	"context"
	"testing"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// TestMemoryEstimateCountsCapacity pins MemoryEstimate to the summed
// cap()s of everything a pool retains — arenas, logs, shard buffers,
// the generators' node-sized and per-sketch scratch, both indexes and
// the scratch kept between queries and repairs — through a build, a
// growth step, warm queries and an in-place repair. Only the graph
// snapshot is excluded: pools share it.
func TestMemoryEstimateCountsCapacity(t *testing.T) {
	for _, mode := range []Mode{ModeFull, ModeLB} {
		r := rng.New(9)
		g := testutil.RandomGraph(r, 120, 600, 0.4)
		p, err := NewPool(g, []int32{0, 5, 9}, 4, mode, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		check := func(when string) {
			t.Helper()
			if got, want := p.MemoryEstimate(), testutil.RetainedBytes(p, (*graph.Graph)(nil)); got != want {
				t.Fatalf("mode %d %s: MemoryEstimate = %d, summed capacities = %d", mode, when, got, want)
			}
		}
		check("new")
		extend(t, p, 500)
		check("built")
		extend(t, p, 1500)
		check("grown")
		p.SelectAndCover(3)
		p.CoverageOf([]int32{1, 2, 3})
		if mode == ModeFull {
			if _, _, err := p.selectDelta(context.Background(), 3, nil); err != nil {
				t.Fatal(err)
			}
			if _, _, err := p.SelectDeltaAmongContext(context.Background(), 2, []int32{1, 2, 3, 4}); err != nil {
				t.Fatal(err)
			}
		}
		check("queried")
		g2, eff, err := g.ApplyDelta(randomPoolDelta(t, r, g, 3, 3, 3))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := p.Repair(g2, eff.DirtyIn, 1); err != nil || !ok {
			t.Fatalf("repair: ok=%v err=%v", ok, err)
		}
		check("repaired")
	}
}
