package prr

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// TestSelectDeltaMatchesNaive is the equivalence property test for the
// incremental selection subsystem: across random pools, k values and
// interleaved growth, SelectDelta must return exactly the chosen set
// and coverage of the retained from-scratch reference.
func TestSelectDeltaMatchesNaive(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 25; trial++ {
		n := 10 + r.Intn(30)
		m := n + r.Intn(4*n)
		g := testutil.RandomGraph(r, n, m, 0.4)
		numSeeds := 1 + r.Intn(3)
		seeds := make([]int32, 0, numSeeds)
		for len(seeds) < numSeeds {
			s := int32(r.Intn(n))
			dup := false
			for _, prev := range seeds {
				dup = dup || prev == s
			}
			if !dup {
				seeds = append(seeds, s)
			}
		}
		kGen := 1 + r.Intn(4)
		pool, err := NewPool(g, seeds, kGen, ModeFull, uint64(trial)+1, 1+trial%3)
		if err != nil {
			t.Fatal(err)
		}
		// Grow in stages, checking equivalence between every stage so the
		// index is exercised after each incremental extension.
		target := 0
		for stage := 0; stage < 3; stage++ {
			target += 300 + r.Intn(1200)
			extend(t, pool, target)
			for k := 1; k <= kGen; k++ {
				fast, fastCov, err := pool.SelectDelta(k)
				if err != nil {
					t.Fatal(err)
				}
				slow, slowCov, err := pool.selectDeltaNaive(k)
				if err != nil {
					t.Fatal(err)
				}
				if fastCov != slowCov || fmt.Sprint(fast) != fmt.Sprint(slow) {
					t.Fatalf("trial %d stage %d k=%d: incremental %v/%d != naive %v/%d",
						trial, stage, k, fast, fastCov, slow, slowCov)
				}
			}
		}
	}
}

// TestSelectDeltaMatchesNaiveParallelReEval forces the sharded
// post-pick re-evaluation path (normally reserved for large affected
// sets) and re-checks equivalence with the naive reference.
func TestSelectDeltaMatchesNaiveParallelReEval(t *testing.T) {
	old := reEvalParallelMin
	reEvalParallelMin = 1
	defer func() { reEvalParallelMin = old }()

	r := rng.New(55)
	for trial := 0; trial < 8; trial++ {
		g := testutil.RandomGraph(r, 20+r.Intn(20), 80+r.Intn(80), 0.4)
		pool, err := NewPool(g, []int32{0, 1}, 3, ModeFull, uint64(trial)+3, 2+trial%3)
		if err != nil {
			t.Fatal(err)
		}
		extend(t, pool, 2000)
		fast, fastCov, err := pool.SelectDelta(3)
		if err != nil {
			t.Fatal(err)
		}
		slow, slowCov, err := pool.selectDeltaNaive(3)
		if err != nil {
			t.Fatal(err)
		}
		if fastCov != slowCov || fmt.Sprint(fast) != fmt.Sprint(slow) {
			t.Fatalf("trial %d: parallel re-eval %v/%d != naive %v/%d",
				trial, fast, fastCov, slow, slowCov)
		}
	}
}

// TestSelectDeltaAmongFullSetMatches pins the restricted variant's
// contract: with every non-seed node listed (or nil) it is exactly
// SelectDelta, and with a shortlist it only ever picks listed nodes.
func TestSelectDeltaAmongFullSetMatches(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 8; trial++ {
		g := testutil.RandomGraph(r, 20+r.Intn(20), 80+r.Intn(80), 0.4)
		pool, err := NewPool(g, []int32{0, 1}, 3, ModeFull, uint64(trial)+11, 2)
		if err != nil {
			t.Fatal(err)
		}
		extend(t, pool, 1500)
		want, wantCov, err := pool.SelectDelta(3)
		if err != nil {
			t.Fatal(err)
		}
		all := make([]int32, 0, g.N())
		for v := int32(2); int(v) < g.N(); v++ {
			all = append(all, v)
		}
		for name, cands := range map[string][]int32{"all": all, "nil": nil} {
			got, gotCov, err := pool.SelectDeltaAmongContext(context.Background(), 3, cands)
			if err != nil {
				t.Fatal(err)
			}
			if gotCov != wantCov || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d (%s): restricted %v/%d != exact %v/%d",
					trial, name, got, gotCov, want, wantCov)
			}
		}
		// A genuine shortlist: picks must stay inside it.
		short := all[:4]
		got, _, err := pool.SelectDeltaAmongContext(context.Background(), 3, short)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range got {
			if !slices.Contains(short, v) {
				t.Fatalf("trial %d: pick %d outside shortlist %v", trial, v, short)
			}
		}
	}
}

// TestSelectDeltaRepeatable checks that repeated warm selections on an
// unchanged pool agree with each other (the per-query state must not
// leak into the shared index).
func TestSelectDeltaRepeatable(t *testing.T) {
	r := rng.New(7)
	g := testutil.RandomGraph(r, 25, 80, 0.4)
	pool, err := NewPool(g, []int32{0, 1}, 3, ModeFull, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	extend(t, pool, 4000)
	first, firstCov, err := pool.SelectDelta(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, againCov, err := pool.SelectDelta(3)
		if err != nil {
			t.Fatal(err)
		}
		if againCov != firstCov || fmt.Sprint(again) != fmt.Sprint(first) {
			t.Fatalf("warm selection %d drifted: %v/%d vs %v/%d", i, again, againCov, first, firstCov)
		}
	}
}

// TestDeltaIndexMatchesRebuild verifies the incrementally maintained
// index against a from-scratch rebuild after several Extend calls.
func TestDeltaIndexMatchesRebuild(t *testing.T) {
	r := rng.New(31)
	g := testutil.RandomGraph(r, 20, 70, 0.4)
	pool, err := NewPool(g, []int32{2}, 2, ModeFull, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []int{500, 1300, 2600} {
		extend(t, pool, target)
		// From-scratch rebuild over the full arena. Independently verify
		// the candidate contract first: each graph's indexed candidate set
		// must equal its Candidates(∅) output (sorted — the critical set).
		s := NewScratch()
		for i := 0; i < pool.arena.numGraphs(); i++ {
			R := pool.arena.at(i)
			_, cs := R.Candidates(pool.zeroMask, s)
			sorted := append([]int32(nil), cs...)
			slices.Sort(sorted)
			if fmt.Sprint(sorted) != fmt.Sprint(pool.sel.initialCands(i)) {
				t.Fatalf("graph %d: indexed candidates %v != Candidates(∅) %v", i, pool.sel.initialCands(i), sorted)
			}
		}
		want := newDeltaIndex(g.N())
		want.extend(&pool.arena, 0)
		got := pool.sel
		if fmt.Sprint(got.postStart) != fmt.Sprint(want.postStart) ||
			fmt.Sprint(got.postItems) != fmt.Sprint(want.postItems) {
			t.Fatalf("postings diverge from rebuild at target %d", target)
		}
		if fmt.Sprint(got.candStart) != fmt.Sprint(want.candStart) ||
			fmt.Sprint(got.candItems) != fmt.Sprint(want.candItems) {
			t.Fatalf("candidate sets diverge from rebuild at target %d", target)
		}
		if fmt.Sprint(got.gain0) != fmt.Sprint(want.gain0) {
			t.Fatalf("initial gains diverge from rebuild at target %d", target)
		}
	}
}

// TestGenerationAdvances pins the cache-key contract: Extend that adds
// graphs bumps Generation, selection does not.
func TestGenerationAdvances(t *testing.T) {
	r := rng.New(13)
	g := testutil.RandomGraph(r, 15, 40, 0.4)
	pool, err := NewPool(g, []int32{0}, 2, ModeFull, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Generation() != 0 {
		t.Fatalf("fresh pool generation %d, want 0", pool.Generation())
	}
	extend(t, pool, 200)
	gen := pool.Generation()
	if gen == 0 {
		t.Fatal("Extend did not bump generation")
	}
	if _, _, err := pool.SelectDelta(2); err != nil {
		t.Fatal(err)
	}
	if pool.Generation() != gen {
		t.Fatal("selection changed the generation")
	}
	extend(t, pool, 100) // no-op: target below current size
	if pool.Generation() != gen {
		t.Fatal("no-op Extend bumped the generation")
	}
	if pool.MemoryEstimate() <= 0 {
		t.Fatal("memory estimate not positive for a grown pool")
	}
}
