package prr

import (
	"fmt"
	"testing"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// randomPoolDelta derives a random valid delta against g: removals and
// reweights sampled from existing edges, adds from absent pairs.
func randomPoolDelta(t testing.TB, r *rng.Source, g *graph.Graph, nAdd, nRemove, nReweight int) *graph.EdgeDelta {
	t.Helper()
	existing := g.Edges()
	used := map[graph.EdgeKey]bool{}
	for _, e := range existing {
		used[graph.EdgeKey{From: e.From, To: e.To}] = false
	}
	d := &graph.EdgeDelta{}
	perm := r.Perm(len(existing))
	pi := 0
	takeExisting := func() (graph.Edge, bool) {
		for pi < len(perm) {
			e := existing[perm[pi]]
			pi++
			k := graph.EdgeKey{From: e.From, To: e.To}
			if !used[k] {
				used[k] = true
				return e, true
			}
		}
		return graph.Edge{}, false
	}
	for i := 0; i < nRemove; i++ {
		if e, ok := takeExisting(); ok {
			d.Remove = append(d.Remove, graph.EdgeKey{From: e.From, To: e.To})
		}
	}
	for i := 0; i < nReweight; i++ {
		if e, ok := takeExisting(); ok {
			p := r.Float64() * 0.5
			e.P, e.PBoost = p, 1-(1-p)*(1-p)
			d.Reweight = append(d.Reweight, e)
		}
	}
	for tries := 0; len(d.Add) < nAdd && tries < 50*nAdd+100; tries++ {
		u := int32(r.Intn(g.N()))
		v := int32(r.Intn(g.N()))
		k := graph.EdgeKey{From: u, To: v}
		if _, present := used[k]; u == v || present {
			continue
		}
		used[k] = true
		p := r.Float64() * 0.5
		d.Add = append(d.Add, graph.Edge{From: u, To: v, P: p, PBoost: 1 - (1-p)*(1-p)})
	}
	return d
}

// samePoolBits asserts two pools are bit-identical: same log, arena,
// statistics, estimates and selections. This is the repair equivalence
// gate — got is a repaired pool, want a cold rebuild on the same graph.
func samePoolBits(t *testing.T, label string, got, want *Pool) {
	t.Helper()
	eq := func(what string, a, b interface{}) {
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("%s: %s differ:\n got %v\nwant %v", label, what, a, b)
		}
	}
	eq("stats", got.Stats(), want.Stats())
	eq("log kinds", got.log.kind, want.log.kind)
	eq("log examined", got.log.examined, want.log.examined)
	eq("log raw", got.log.raw, want.log.raw)
	eq("log comp", got.log.comp, want.log.comp)
	eq("log expStart", got.log.expStart, want.log.expStart)
	eq("log expItems", got.log.expItems, want.log.expItems)
	eq("arena refs", got.arena.refs, want.arena.refs)
	eq("arena orig", got.arena.orig, want.arena.orig)
	eq("arena outStart", got.arena.outStart, want.arena.outStart)
	eq("arena inStart", got.arena.inStart, want.arena.inStart)
	eq("arena outTo", got.arena.outTo, want.arena.outTo)
	eq("arena outBoost", got.arena.outBoost, want.arena.outBoost)
	eq("arena inFrom", got.arena.inFrom, want.arena.inFrom)
	eq("arena inBoost", got.arena.inBoost, want.arena.inBoost)
	eq("arena critical", got.arena.critical, want.arena.critical)

	n := got.g.N()
	boost := []int32{int32(1 % n), int32(7 % n)}
	eq("EstimateMu", got.EstimateMu(boost), want.EstimateMu(boost))
	if got.mode == ModeFull {
		gd, err := got.EstimateDelta(boost)
		if err != nil {
			t.Fatalf("%s: EstimateDelta: %v", label, err)
		}
		wd, err := want.EstimateDelta(boost)
		if err != nil {
			t.Fatalf("%s: EstimateDelta (cold): %v", label, err)
		}
		eq("EstimateDelta", gd, wd)
		gs, gc, err := got.SelectDelta(got.k)
		if err != nil {
			t.Fatalf("%s: SelectDelta: %v", label, err)
		}
		ws, wc, err := want.SelectDelta(want.k)
		if err != nil {
			t.Fatalf("%s: SelectDelta (cold): %v", label, err)
		}
		eq("SelectDelta", gs, ws)
		eq("SelectDelta coverage", gc, wc)
	} else {
		gs, gc := got.SelectAndCover(got.k)
		ws, wc := want.SelectAndCover(want.k)
		eq("SelectAndCover", gs, ws)
		eq("SelectAndCover coverage", gc, wc)
	}
}

// TestRepairMatchesColdRebuild is the tentpole equivalence property:
// applying staged delta sequences and repairing after each must leave
// the pool bit-identical to a cold pool built on the final graph at the
// same (seed, total), across worker counts and both modes.
func TestRepairMatchesColdRebuild(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		for _, mode := range []Mode{ModeFull, ModeLB} {
			for _, workers := range []int{1, 2, 7} {
				tr := rng.New(uint64(trial)*131 + uint64(workers)*17 + uint64(mode) + 7)
				g := testutil.RandomGraph(tr, 25+tr.Intn(20), 120+tr.Intn(80), 0.5)
				seeds := testutil.RandomSeedSet(tr, g.N(), 1+tr.Intn(2))
				k := 2 + tr.Intn(3)
				seed := uint64(trial)*977 + 55

				pool, err := NewPool(g, seeds, k, mode, seed, workers)
				if err != nil {
					t.Fatal(err)
				}
				extend(t, pool, 600)

				batches := 1 + tr.Intn(3)
				for b := 0; b < batches; b++ {
					d := randomPoolDelta(t, tr, g, 1+tr.Intn(4), tr.Intn(4), tr.Intn(4))
					g2, eff, err := g.ApplyDelta(d)
					if err != nil {
						t.Fatalf("ApplyDelta: %v", err)
					}
					wantGen := pool.Generation() + 1
					touched, ok, err := pool.Repair(g2, eff.DirtyIn, 1.0)
					if err != nil {
						t.Fatalf("Repair: %v", err)
					}
					if !ok {
						t.Fatalf("Repair declined at maxFrac=1.0 (touched %d)", touched)
					}
					if touched < 0 || touched > pool.Size() {
						t.Fatalf("touched %d out of range [0,%d]", touched, pool.Size())
					}
					if pool.Generation() != wantGen {
						t.Fatalf("generation %d after repair, want %d", pool.Generation(), wantGen)
					}
					if pool.Graph() != g2 {
						t.Fatal("pool graph not swapped")
					}
					g = g2

					cold, err := NewPool(g2, seeds, k, mode, seed, 1)
					if err != nil {
						t.Fatal(err)
					}
					extend(t, cold, 600)
					label := fmt.Sprintf("trial %d mode %d workers %d batch %d (touched %d)",
						trial, mode, workers, b, touched)
					samePoolBits(t, label, pool, cold)

					// Growing a repaired pool must also match growing the
					// cold one: streams and indices survived the repair.
					if b == batches-1 {
						extend(t, pool, 700)
						extend(t, cold, 700)
						samePoolBits(t, label+" post-grow", pool, cold)
					}
				}
			}
		}
	}
}

// TestRepairUntouchedDelta: a delta in a region no sketch expanded
// (possible when seeds block expansion) must report touched counts that
// agree with the expanded-set index, and a zero-dirty repair touches
// nothing while still swapping the graph.
func TestRepairNoDirtyNodes(t *testing.T) {
	tr := rng.New(3)
	g := testutil.RandomGraph(tr, 20, 80, 0.4)
	seeds := testutil.RandomSeedSet(tr, g.N(), 2)
	pool, err := NewPool(g, seeds, 3, ModeFull, 42, 2)
	if err != nil {
		t.Fatal(err)
	}
	extend(t, pool, 300)
	before := pool.Stats()
	g2, _, err := g.ApplyDelta(&graph.EdgeDelta{})
	if err != nil {
		t.Fatal(err)
	}
	touched, ok, err := pool.Repair(g2, make([]bool, g.N()), 1.0)
	if err != nil || !ok {
		t.Fatalf("Repair: touched=%d ok=%v err=%v", touched, ok, err)
	}
	if touched != 0 {
		t.Fatalf("zero-dirty repair touched %d sketches", touched)
	}
	if pool.Graph() != g2 {
		t.Fatal("graph not swapped")
	}
	if fmt.Sprint(pool.Stats()) != fmt.Sprint(before) {
		t.Fatalf("zero-dirty repair changed stats: %+v vs %+v", pool.Stats(), before)
	}
}

// TestRepairFallback: when the touched fraction exceeds maxFrac, Repair
// must decline without mutating anything.
func TestRepairFallback(t *testing.T) {
	tr := rng.New(11)
	g := testutil.RandomGraph(tr, 20, 100, 0.5)
	seeds := testutil.RandomSeedSet(tr, g.N(), 1)
	pool, err := NewPool(g, seeds, 3, ModeFull, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	extend(t, pool, 400)
	before := pool.Stats()
	gen := pool.Generation()

	// Dirty every node: every sketch that expanded anything is touched.
	dirty := make([]bool, g.N())
	for i := range dirty {
		dirty[i] = true
	}
	g2, _, err := g.ApplyDelta(&graph.EdgeDelta{})
	if err != nil {
		t.Fatal(err)
	}
	touched, ok, err := pool.Repair(g2, dirty, 0.01)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if ok {
		t.Fatalf("Repair accepted %d touched sketches above 1%% threshold", touched)
	}
	if touched == 0 {
		t.Fatal("all-dirty repair touched no sketches")
	}
	if pool.Generation() != gen || pool.Graph() != g ||
		fmt.Sprint(pool.Stats()) != fmt.Sprint(before) {
		t.Fatal("declined repair mutated the pool")
	}
	// The same repair goes through with the threshold lifted.
	if _, ok, err := pool.Repair(g2, dirty, 1.0); err != nil || !ok {
		t.Fatalf("unrestricted repair failed: ok=%v err=%v", ok, err)
	}
}

// TestRepairRejectsNodeCountChange: deltas never change the node
// universe.
func TestRepairRejectsNodeCountChange(t *testing.T) {
	tr := rng.New(1)
	g := testutil.RandomGraph(tr, 10, 30, 0.5)
	g2 := testutil.RandomGraph(tr, 11, 30, 0.5)
	pool, err := NewPool(g, []int32{0}, 2, ModeFull, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	extend(t, pool, 50)
	if _, _, err := pool.Repair(g2, make([]bool, g2.N()), 1.0); err == nil {
		t.Fatal("Repair accepted a node-count change")
	}
	if _, _, err := pool.Repair(g, make([]bool, 3), 1.0); err == nil {
		t.Fatal("Repair accepted a mis-sized dirty mask")
	}
}
