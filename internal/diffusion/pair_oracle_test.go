package diffusion

import (
	"math"
	"testing"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// refSimulator carries the state of pairOnceRef, the branchy PairOnce
// that stamped a live byte per edge: the oracle the per-node live runs
// must reproduce draw for draw.
type refSimulator struct {
	g     *graph.Graph
	mark  []int32
	live  []uint8
	epoch int32
	queue []int32
}

func newRefSimulator(g *graph.Graph) *refSimulator {
	return &refSimulator{g: g, mark: make([]int32, g.N())}
}

func (s *refSimulator) nextEpoch() int32 {
	if s.epoch == math.MaxInt32 {
		clear(s.mark)
		clear(s.live)
		s.epoch = 0
	}
	s.epoch++
	if uint8(s.epoch) == 0 {
		clear(s.live)
		s.epoch++
	}
	return s.epoch
}

func (s *refSimulator) pairOnceRef(seeds []int32, boost []bool, r *rng.Source) (base, boosted int) {
	g := s.g
	if s.live == nil {
		s.live = make([]uint8, g.M())
	}
	epoch := s.nextEpoch()
	stamp := uint8(epoch)
	mark, live := s.mark, s.live

	// Pass 1: boosted world, stamping live edges.
	queue := seedQueue(s.queue, mark, seeds, epoch)
	s0, s1, s2, s3 := r.State()
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		start := g.OutOffset(u)
		to := g.OutTo(u)
		p := g.OutP(u)
		pb := g.OutPBoost(u)
		for i, v := range to {
			var x uint64
			x, s0, s1, s2, s3 = rng.Step(s0, s1, s2, s3)
			f := rng.Unit(x)
			if f < p[i] {
				live[start+int32(i)] = stamp
			} else if f >= pb[i] || boost == nil || !boost[v] {
				continue
			}
			if mark[v] != epoch {
				mark[v] = epoch
				queue = append(queue, v)
			}
		}
	}
	r.SetState(s0, s1, s2, s3)
	boosted = len(queue)

	// Pass 2: base world over the stamped live edges.
	queue = seedQueue(queue, mark, seeds, -epoch)
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		start := g.OutOffset(u)
		for i, v := range g.OutTo(u) {
			if mark[v] != -epoch && live[start+int32(i)] == stamp {
				mark[v] = -epoch
				queue = append(queue, v)
			}
		}
	}
	s.queue = queue
	return len(queue), boosted
}

func streamState(r *rng.Source) [4]uint64 {
	s0, s1, s2, s3 := r.State()
	return [4]uint64{s0, s1, s2, s3}
}

// pairOracle runs PairOnce and pairOnceRef on one world each from equal
// streams and fails unless both spreads and both stream end states
// agree. It reports the boosted spread.
func pairOracle(t *testing.T, sim *Simulator, ref *refSimulator, seeds []int32, mask []bool, seed uint64) int {
	t.Helper()
	rs, rr := rng.New(seed), rng.New(seed)
	base, boosted := sim.PairOnce(seeds, mask, rs)
	wantBase, wantBoosted := ref.pairOnceRef(seeds, mask, rr)
	if base != wantBase || boosted != wantBoosted {
		t.Fatalf("stream %d, seeds %v: PairOnce = (%d, %d), reference (%d, %d)",
			seed, seeds, base, boosted, wantBase, wantBoosted)
	}
	if got, want := streamState(rs), streamState(rr); got != want {
		t.Fatalf("stream %d, seeds %v: stream ends at %x, reference at %x", seed, seeds, got, want)
	}
	return boosted
}

// TestPairOnceMatchesReference pins PairOnce to pairOnceRef over
// thousands of worlds on one reused Simulator per graph. Every world
// takes a fresh seed set (duplicates included) and boost mask (nil,
// empty, random, or every node), so the live runs of nodes the previous
// world expanded are stale when the next world starts.
func TestPairOnceMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		full bool // the all-boosted worlds must reach every node
	}{
		{"random", testutil.RandomGraph(rng.New(5), 50, 200, 0.5), false},
		{"edge-cases", testutil.EdgeCaseGraph(rng.New(6), 60, 300, 0.4), false},
		{"dense", testutil.RandomGraph(rng.New(7), 24, 400, 1), true},
		{"no-edges", graph.NewBuilder(12).MustBuild(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			n := g.N()
			sim, ref := NewSimulator(g), newRefSimulator(g)
			pick := rng.New(uint64(n))
			all := make([]bool, n)
			for v := range all {
				all[v] = true
			}
			reachedN := false
			for world := 0; world < 1500; world++ {
				seeds := make([]int32, 1+pick.Intn(4))
				for i := range seeds {
					seeds[i] = int32(pick.Intn(n))
				}
				if world%7 == 0 {
					seeds = append(seeds, seeds[0]) // a duplicate seed
				}
				var mask []bool
				switch world % 4 {
				case 1:
					mask = make([]bool, n)
				case 2:
					mask = make([]bool, n)
					for v := range mask {
						mask[v] = pick.Float64() < 0.3
					}
				case 3:
					mask = all
				}
				boosted := pairOracle(t, sim, ref, seeds, mask, uint64(world)+1)
				reachedN = reachedN || boosted == n
			}
			if tc.full && !reachedN {
				t.Fatal("no all-boosted world reached every node")
			}
		})
	}
}

// TestPairOnceProbabilityTies builds stars whose edge probabilities
// equal the very draws their worlds make: an odd target's edge has
// p = p' = u, and an even target is boosted and its edge has
// p' = u > p. Both compares are strict, as in pairOnceRef, so every
// edge is blocked and the world is the seed alone.
func TestPairOnceProbabilityTies(t *testing.T) {
	const fanout = 40
	for seed := uint64(1); seed <= 20; seed++ {
		draws := rng.New(seed)
		b := graph.NewBuilder(fanout + 1)
		for i := int32(1); i <= fanout; i++ {
			u := draws.Float64()
			p, pb := u, u
			if i%2 == 0 {
				p = u / 2
			}
			b.MustAddEdge(0, i, p, pb)
		}
		g := b.MustBuild()
		mask := make([]bool, g.N())
		for v := 2; v < g.N(); v += 2 {
			mask[v] = true
		}
		if boosted := pairOracle(t, NewSimulator(g), newRefSimulator(g), []int32{0}, mask, seed); boosted != 1 {
			t.Fatalf("stream %d: boosted spread %d, want 1: every tie must be blocked", seed, boosted)
		}
	}
}
