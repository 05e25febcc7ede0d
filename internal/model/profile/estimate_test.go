package profile

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// hop is a one-hop toy cascade for kernel tests: a profile's base world
// is the seed set, and its frontier is every non-seed out-neighbor of a
// seed that the profile seed admits. Boosting a frontier node activates
// it and nothing else.
type hop struct {
	g    *graph.Graph
	seed []bool
}

// admits is a fixed per-(profile, node) coin.
func (h *hop) admits(ps uint64, v int32) bool { return ps>>(uint(v)%61)&1 == 1 }

// NewScratch returns a node mark used to deduplicate the frontier.
func (h *hop) NewScratch() []bool { return make([]bool, h.g.N()) }

func (h *hop) Base(ps uint64, st *Store[struct{}], mark []bool) {
	var active, front []int32
	for u := int32(0); int(u) < h.g.N(); u++ {
		if !h.seed[u] {
			continue
		}
		active = append(active, u)
		for _, v := range h.g.OutTo(u) {
			if !h.seed[v] && !mark[v] && h.admits(ps, v) {
				mark[v] = true
				front = append(front, v)
			}
		}
	}
	for _, v := range front {
		mark[v] = false
	}
	st.Add(active, front, nil)
}

func (h *hop) Delta(pr Profile[struct{}], _ []int32, mask []bool, _ *Gains, _ []bool) int {
	n := 0
	for _, v := range pr.Front {
		if mask[v] {
			n++
		}
	}
	return n
}

func (h *hop) Simulate(ps uint64, mask []bool, mark []bool) int {
	st := newStore[struct{}]()
	h.Base(ps, &st, mark)
	n := len(st.activeItems)
	for _, v := range st.frontItems {
		if mask != nil && mask[v] {
			n++
		}
	}
	return n
}

// countingCascade counts the Delta calls made on the cascade it wraps.
type countingCascade[W, S any] struct {
	Cascade[W, S]
	deltas atomic.Int64
}

func (c *countingCascade[W, S]) Delta(pr Profile[W], bset []int32, mask []bool, gc *Gains, s S) int {
	c.deltas.Add(1)
	return c.Cascade.Delta(pr, bset, mask, gc, s)
}

// TestEstimateOnePass checks that Estimate evaluates each affected
// profile once — one Delta call per profile on the union of the boost
// nodes' frontier posting lists, none on an error — and that both of
// its values come from that one pass: σ̂ and Δ̂ equal full
// re-simulation, and EstimateSpread and EstimateBoost return them bit
// for bit. It runs on both the serial and the sharded evaluation path.
func TestEstimateOnePass(t *testing.T) {
	defer func(m int) { EstimateParallelMin = m }(EstimateParallelMin)
	r := rng.New(41)
	for trial := 0; trial < 8; trial++ {
		g := testutil.RandomGraph(r, 20+r.Intn(30), 60+r.Intn(200), 0.5)
		n := g.N()
		seeds := testutil.RandomSeedSet(r, n, 1+r.Intn(4))
		workers := 1 + trial%3
		EstimateParallelMin = []int{256, 1}[trial%2]
		var cc *countingCascade[struct{}, []bool]
		p, err := New("hop", g, seeds, uint64(trial)+3, workers, func(s []int32) Cascade[struct{}, []bool] {
			h := &hop{g: g, seed: make([]bool, n)}
			for _, v := range s {
				h.seed[v] = true
			}
			cc = &countingCascade[struct{}, []bool]{Cascade: h}
			return cc
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.ExtendContext(context.Background(), 300); err != nil {
			t.Fatal(err)
		}
		R := float64(p.NumProfiles())
		resim := func(mask []bool) int64 {
			var sum int64
			s := p.Scratch()
			defer p.PutScratch(s)
			for pi := 0; pi < p.NumProfiles(); pi++ {
				sum += int64(cc.Simulate(p.Profile(pi).Seed, mask, s))
			}
			return sum
		}
		base := resim(nil)

		boosts := [][]int32{nil, {}, {seeds[0]}}
		for len(boosts) < 12 {
			b := make([]int32, 1+r.Intn(6))
			for i := range b {
				b[i] = int32(r.Intn(n))
			}
			boosts = append(boosts, append(b, b[0]))
		}
		for _, boost := range boosts {
			label := fmt.Sprintf("trial %d workers %d boost %v", trial, workers, boost)
			mask := make([]bool, n)
			hit := map[int32]bool{}
			for _, v := range boost {
				mask[v] = true
				for _, pi := range p.FrontierProfiles(v) {
					hit[pi] = true
				}
			}
			cc.deltas.Store(0)
			spread, delta, err := p.Estimate(boost)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got := cc.deltas.Load(); got != int64(len(hit)) {
				t.Fatalf("%s: %d Delta calls, want one per affected profile (%d)", label, got, len(hit))
			}
			sum := resim(mask)
			if spread != float64(sum)/R || delta != float64(sum-base)/R {
				t.Fatalf("%s: Estimate = (%v, %v), re-simulation gives (%v, %v)", label, spread, delta, float64(sum)/R, float64(sum-base)/R)
			}
			s, errS := p.EstimateSpread(boost)
			d, errB := p.EstimateBoost(boost)
			if errS != nil || errB != nil || math.Float64bits(s) != math.Float64bits(spread) || math.Float64bits(d) != math.Float64bits(delta) {
				t.Fatalf("%s: EstimateSpread/EstimateBoost = (%v, %v; %v, %v), Estimate = (%v, %v)", label, s, d, errS, errB, spread, delta)
			}
		}

		for _, bad := range []int32{-1, int32(n)} {
			cc.deltas.Store(0)
			spread, delta, err := p.Estimate([]int32{0, bad})
			if err == nil || spread != 0 || delta != 0 {
				t.Fatalf("trial %d: Estimate with node %d = (%v, %v, %v), want an error", trial, bad, spread, delta, err)
			}
			if got := cc.deltas.Load(); got != 0 {
				t.Fatalf("trial %d: failed Estimate made %d Delta calls", trial, got)
			}
		}
	}
}

// quietHop is hop with a payload test that proves nothing, so its pools
// keep posting offsets.
type quietHop struct{ *hop }

func (quietHop) Gate(int32) float64                          { return 0 }
func (quietHop) Quiet(uint64, int32, struct{}, float64) bool { return false }

// TestReindexMatchesFullRebuild checks that the index Resample merges
// from the old one — starts, postings and offsets — equals a full
// rebuild, with and without offsets, over chains of five Resamples on
// one pool that switch between three graphs, so nodes enter and leave
// frontiers, with touched shares of none, a single profile, some and
// all. Each merge reuses the scratch of the last, which must come back
// all zero. A Resample that touches no profile must keep the store and
// the index as they were, backing arrays and MemoryEstimate included,
// and still take the new graph and cascade and bump the generation.
func TestReindexMatchesFullRebuild(t *testing.T) {
	r := rng.New(43)
	var entered, left int // nodes whose list went from empty to not, and back
	zeroTouch := 0        // Resamples that touched no profile
	for trial := 0; trial < 24; trial++ {
		n := 20 + r.Intn(30)
		var graphs [3]*graph.Graph
		for i := range graphs {
			graphs[i] = testutil.RandomGraph(r, n, 60+r.Intn(200), 0.5)
		}
		seeds := testutil.RandomSeedSet(r, n, 1+r.Intn(4))
		withOff := trial%2 == 1
		mk := func(g *graph.Graph) func([]int32) Cascade[struct{}, []bool] {
			return func(s []int32) Cascade[struct{}, []bool] {
				h := &hop{g: g, seed: make([]bool, n)}
				for _, v := range s {
					h.seed[v] = true
				}
				if withOff {
					return quietHop{h}
				}
				return h
			}
		}
		p, err := New("hop", graphs[0], seeds, uint64(trial)+5, 1+trial%3, mk(graphs[0]))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.ExtendContext(context.Background(), 150+r.Intn(150)); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 5; step++ {
			g2 := graphs[(step+1)%len(graphs)]
			share := []float64{0, -1, 0.05, 0.5, 1}[(trial+step)%5] // -1: a single profile
			touched := make([]bool, p.NumProfiles())
			for pi := range touched {
				touched[pi] = r.Float64() < share
			}
			if share < 0 {
				touched[r.Intn(len(touched))] = true
			}
			prev, prevSt, mem, gen := p.idxStart, p.st, p.MemoryEstimate(), p.Generation()
			c := mk(g2)(p.seeds)
			p.Resample(g2, c, touched)
			if p.Generation() != gen+1 || p.Graph() != g2 || p.Cascade() != c {
				t.Fatalf("trial %d step %d: Resample left generation %d (was %d), or not the new graph and cascade", trial, step, p.Generation(), gen)
			}
			if !slices.Contains(touched, true) {
				// No touched profile: nothing is copied, the store and the
				// index keep their backing arrays.
				same := func(a, b []int32) bool { return unsafe.SliceData(a) == unsafe.SliceData(b) && len(a) == len(b) }
				if !same(p.st.activeStart, prevSt.activeStart) || !same(p.st.activeItems, prevSt.activeItems) ||
					!same(p.st.frontStart, prevSt.frontStart) || !same(p.st.frontItems, prevSt.frontItems) ||
					unsafe.SliceData(p.st.pay) != unsafe.SliceData(prevSt.pay) || !same(p.idxStart, prev) {
					t.Fatalf("trial %d step %d: a no-touch Resample replaced the store or the index", trial, step)
				}
				if got := p.MemoryEstimate(); got != mem {
					t.Fatalf("trial %d step %d: a no-touch Resample moved MemoryEstimate %d -> %d", trial, step, mem, got)
				}
				zeroTouch++
			}
			start, items, off := p.idxStart, p.idxItems, p.idxOff
			p.index(0)
			if !slices.Equal(start, p.idxStart) || !slices.Equal(items, p.idxItems) || !slices.Equal(off, p.idxOff) || (off == nil) == withOff {
				t.Fatalf("trial %d step %d (offsets %v, touched share %v): merged index differs from a full rebuild", trial, step, withOff, share)
			}
			if i := slices.IndexFunc(p.rx.mark, func(c int32) bool { return c != 0 }); i >= 0 {
				t.Fatalf("trial %d step %d: reindex left mark[%d] = %d", trial, step, i, p.rx.mark[i])
			}
			p.idxStart, p.idxItems, p.idxOff = start, items, off
			for v := 0; v < n; v++ {
				was, is := prev[v+1] > prev[v], start[v+1] > start[v]
				if !was && is {
					entered++
				}
				if was && !is {
					left++
				}
			}
		}
	}
	if entered == 0 || left == 0 || zeroTouch == 0 {
		t.Fatalf("no node entered (%d) or left (%d) every frontier, or no Resample touched nothing (%d)", entered, left, zeroTouch)
	}
}
