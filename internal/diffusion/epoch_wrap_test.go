package diffusion

import (
	"math"
	"testing"

	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// TestSimulatorEpochWrap forces the Simulator's epoch across its int32
// wrap at math.MaxInt32 and checks that simulation stays correct across
// it. The Simulator is first run for a few worlds, so mark holds stamps
// 1..15 (and the base pass's negated stamps); without the wrap guard
// the epoch would go negative, where the base pass's negated stamps
// collide, and worlds would silently come out wrong. Every result must
// equal a fresh Simulator's on the same stream.
func TestSimulatorEpochWrap(t *testing.T) {
	g := testutil.EdgeCaseGraph(rng.New(17), 40, 160, 0.3)
	seeds := []int32{0, 9}
	mask := MaskFromSet(g.N(), []int32{2, 5, 11, 17})

	type world struct{ base, boosted, spread, plain int }
	run := func(sim *Simulator, r *rng.Source) world {
		base, boosted := sim.PairOnce(seeds, mask, r)
		return world{base, boosted, sim.SpreadOnce(seeds, mask, r), sim.SpreadOnce(seeds, nil, r)}
	}

	for _, tc := range []struct {
		name               string
		start              int32 // the first world ends at the wrap
		minAfter, maxAfter int32 // bounds on the epoch after 8 worlds
	}{
		{"int32", math.MaxInt32 - 3, 1, 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			primed := NewSimulator(g)
			warm := rng.New(99)
			for i := 0; i < 5; i++ {
				run(primed, warm)
			}
			fresh := NewSimulator(g)
			primed.epoch = tc.start
			rp, rf := rng.New(3), rng.New(3)
			for i := 0; i < 8; i++ {
				got, want := run(primed, rp), run(fresh, rf)
				if got != want {
					t.Fatalf("world %d across the wrap: %+v, want %+v (epoch=%d)", i, got, want, primed.epoch)
				}
			}
			if primed.epoch < tc.minAfter || primed.epoch > tc.maxAfter {
				t.Fatalf("epoch did not wrap into [%d, %d]: %d", tc.minAfter, tc.maxAfter, primed.epoch)
			}
		})
	}
}
