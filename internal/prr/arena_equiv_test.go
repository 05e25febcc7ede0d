package prr

import (
	"fmt"
	"testing"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// This file pins the pool to its serial reference semantics: a
// reference pool is rebuilt from the standalone GenerateFrom path — one
// heap-allocated PRR per boostable graph — by replaying the per-sketch
// stateless stream schedule serially: sketch i is always generated from
// rng.StreamSeed(seed, i), so pool contents are a pure function of
// (graph, seeds, k, mode, seed, total), independent of worker count and
// of staged versus one-shot growth. The arena-backed pool must match
// the single serial reference bit for bit — same graphs in the same
// order with identical CSRs and critical sets, same statistics, same
// estimates, and same selections — for every worker count and staging.

// refPool replays the pool's generation schedule using standalone
// serial generation.
type refPool struct {
	graphs []*PRR    // boostable graphs in sketch-index order (ModeFull)
	crits  [][]int32 // critical sets in sketch-index order (both modes)

	total, activated, hopeless, boostable int
}

func buildRefPool(g *refGraphCase, mode Mode, total int, t *testing.T) *refPool {
	t.Helper()
	gen, err := NewGenerator(g.g, g.seeds, g.k, mode)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(0)
	ref := &refPool{}
	for i := 0; i < total; i++ {
		r.ReseedStream(g.seed, uint64(i))
		res := gen.Generate(r)
		ref.total++
		switch res.Kind {
		case KindActivated:
			ref.activated++
		case KindHopeless:
			ref.hopeless++
		case KindBoostable:
			ref.boostable++
			ref.crits = append(ref.crits, res.Critical)
			if mode == ModeFull {
				ref.graphs = append(ref.graphs, res.Graph)
			}
		}
	}
	return ref
}

type refGraphCase struct {
	g     *graph.Graph
	seeds []int32
	k     int
	seed  uint64
}

func newRefCase(t *testing.T, trialSeed uint64) *refGraphCase {
	r := rng.New(trialSeed)
	g := testutil.RandomGraph(r, 25+r.Intn(20), 100+r.Intn(100), 0.5)
	return &refGraphCase{
		g:     g,
		seeds: testutil.RandomSeedSet(r, g.N(), 1+r.Intn(2)),
		k:     2 + r.Intn(3),
		seed:  trialSeed*977 + 5,
	}
}

// samePRR compares an arena view against a standalone reference graph
// field by field.
func samePRR(a, b *PRR) bool {
	return a.root == b.root &&
		fmt.Sprint(a.orig) == fmt.Sprint(b.orig) &&
		fmt.Sprint(a.outStart) == fmt.Sprint(b.outStart) &&
		fmt.Sprint(a.outTo) == fmt.Sprint(b.outTo) &&
		fmt.Sprint(a.outBoost) == fmt.Sprint(b.outBoost) &&
		fmt.Sprint(a.inStart) == fmt.Sprint(b.inStart) &&
		fmt.Sprint(a.inFrom) == fmt.Sprint(b.inFrom) &&
		fmt.Sprint(a.inBoost) == fmt.Sprint(b.inBoost) &&
		fmt.Sprint(a.critical) == fmt.Sprint(b.critical)
}

// refSelectDelta is an independent greedy Δ̂ reference over standalone
// graphs (the pre-refactor selection semantics, reimplemented without
// any pool machinery).
func refSelectDelta(g *refGraphCase, graphs []*PRR, total, k int) ([]int32, int) {
	n := g.g.N()
	seedMask := make([]bool, n)
	for _, s := range g.seeds {
		seedMask[s] = true
	}
	mask := make([]bool, n)
	covered := make([]bool, len(graphs))
	s := NewScratch()
	var chosen []int32
	coveredCount := 0
	for len(chosen) < k {
		gain := make([]int32, n)
		for gi, R := range graphs {
			if covered[gi] {
				continue
			}
			_, cands := R.Candidates(mask, s)
			for _, v := range cands {
				gain[v]++
			}
		}
		best := int32(-1)
		var bestGain int32
		for v := int32(0); int(v) < n; v++ {
			if mask[v] || seedMask[v] {
				continue
			}
			if gain[v] > bestGain {
				best, bestGain = v, gain[v]
			}
		}
		if best < 0 || bestGain == 0 {
			break
		}
		chosen = append(chosen, best)
		mask[best] = true
		for gi, R := range graphs {
			if !covered[gi] && R.Eval(mask, s) {
				covered[gi] = true
				coveredCount++
			}
		}
	}
	return chosen, coveredCount
}

// TestArenaPoolMatchesReference is the main equivalence property test:
// for worker counts 1, 2 and 7 and for staged vs one-shot growth, the
// arena-backed pool must be bit-identical to the pre-refactor reference
// — contents, statistics, estimates and selections.
func TestArenaPoolMatchesReference(t *testing.T) {
	workerCounts := []int{1, 2, 7}
	for trial := 0; trial < 4; trial++ {
		c := newRefCase(t, uint64(trial)+11)
		stages := [][]int{
			{900},           // one-shot
			{300, 600, 900}, // staged
		}
		// One serial reference per case: per-sketch stateless streams
		// make pool contents invariant to workers and staging, so every
		// (workers, stage-set) pool below must equal the same reference.
		ref := buildRefPool(c, ModeFull, 900, t)
		for _, workers := range workerCounts {
			for si, targets := range stages {
				pool, err := NewPool(c.g, c.seeds, c.k, ModeFull, c.seed, workers)
				if err != nil {
					t.Fatal(err)
				}
				for _, target := range targets {
					extend(t, pool, target)
				}
				if uint64(len(targets)) != pool.Generation() {
					t.Fatalf("trial %d workers %d stage-set %d: generation %d, want %d",
						trial, workers, si, pool.Generation(), len(targets))
				}
				st := pool.Stats()
				if st.Total != ref.total || st.Activated != ref.activated ||
					st.Hopeless != ref.hopeless || st.Boostable != ref.boostable {
					t.Fatalf("trial %d workers %d stage-set %d: stats %+v diverge from reference (%d/%d/%d/%d)",
						trial, workers, si, st, ref.total, ref.activated, ref.hopeless, ref.boostable)
				}
				if pool.arena.numGraphs() != len(ref.graphs) {
					t.Fatalf("trial %d workers %d: %d arena graphs, reference has %d",
						trial, workers, pool.arena.numGraphs(), len(ref.graphs))
				}
				// Shards merge in worker order within every Extend, so the
				// arena reproduces the reference merge order graph by
				// graph for staged and one-shot growth alike.
				for i := range ref.graphs {
					view := pool.arena.at(i)
					if !samePRR(&view, ref.graphs[i]) {
						t.Fatalf("trial %d workers %d stage-set %d: arena graph %d differs from reference",
							trial, workers, si, i)
					}
				}
				// Estimates: Δ̂ against a brute-force Eval sweep of the
				// reference graphs, μ̂ against the reference critical sets.
				boost := []int32{int32(trial % c.g.N()), int32((trial*7 + 3) % c.g.N())}
				mask := make([]bool, c.g.N())
				for _, v := range boost {
					mask[v] = true
				}
				s := NewScratch()
				covered := 0
				for _, R := range ref.graphs {
					if R.Eval(mask, s) {
						covered++
					}
				}
				wantDelta := float64(c.g.N()) * float64(covered) / float64(ref.total)
				gotDelta, err := pool.EstimateDelta(boost)
				if err != nil {
					t.Fatal(err)
				}
				if gotDelta != wantDelta {
					t.Fatalf("trial %d workers %d: EstimateDelta %v, reference %v", trial, workers, gotDelta, wantDelta)
				}
				muCovered := 0
				for _, crit := range ref.crits {
					for _, v := range crit {
						if mask[v] {
							muCovered++
							break
						}
					}
				}
				wantMu := float64(c.g.N()) * float64(muCovered) / float64(ref.total)
				if gotMu := pool.EstimateMu(boost); gotMu != wantMu {
					t.Fatalf("trial %d workers %d: EstimateMu %v, reference %v", trial, workers, gotMu, wantMu)
				}
				// Selections: incremental == naive == independent reference.
				fast, fastCov, err := pool.SelectDelta(c.k)
				if err != nil {
					t.Fatal(err)
				}
				slow, slowCov, err := pool.selectDeltaNaive(c.k)
				if err != nil {
					t.Fatal(err)
				}
				refChosen, refCov := refSelectDelta(c, ref.graphs, ref.total, c.k)
				if fmt.Sprint(fast) != fmt.Sprint(slow) || fastCov != slowCov {
					t.Fatalf("trial %d workers %d: SelectDelta %v/%d != naive %v/%d",
						trial, workers, fast, fastCov, slow, slowCov)
				}
				if fmt.Sprint(fast) != fmt.Sprint(refChosen) || fastCov != refCov {
					t.Fatalf("trial %d workers %d stage-set %d: SelectDelta %v/%d != reference %v/%d",
						trial, workers, si, fast, fastCov, refChosen, refCov)
				}
			}
		}
	}
}

// TestArenaPoolMatchesReferenceLB pins the lower-bound pool family:
// ModeLB stores only critical sets, which must match the standalone
// reference in content and order, and drive identical μ̂ estimates and
// coverage selections.
func TestArenaPoolMatchesReferenceLB(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		c := newRefCase(t, uint64(trial)+31)
		ref := buildRefPool(c, ModeLB, 800, t)
		for _, workers := range []int{1, 2, 7} {
			pool, err := NewPool(c.g, c.seeds, c.k, ModeLB, c.seed, workers)
			if err != nil {
				t.Fatal(err)
			}
			extend(t, pool, 800)
			if pool.arena.numGraphs() != len(ref.crits) {
				t.Fatalf("trial %d workers %d: %d critical sets, reference has %d",
					trial, workers, pool.arena.numGraphs(), len(ref.crits))
			}
			for i, crit := range ref.crits {
				if fmt.Sprint(pool.arena.critAt(i)) != fmt.Sprint(crit) {
					t.Fatalf("trial %d workers %d: critical set %d = %v, reference %v",
						trial, workers, i, pool.arena.critAt(i), crit)
				}
			}
			chosen, covered := pool.SelectAndCover(c.k)
			if got := pool.CoverageOf(chosen); got != covered {
				t.Fatalf("trial %d workers %d: SelectAndCover coverage %d != CoverageOf %d",
					trial, workers, covered, got)
			}
		}
	}
}
