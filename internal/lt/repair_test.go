package lt

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// randomLTDelta derives a random valid delta against g.
func randomLTDelta(t testing.TB, r *rng.Source, g *graph.Graph, nAdd, nRemove, nReweight int) *graph.EdgeDelta {
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

// sameLTPoolBits asserts two pools are bit-identical: same profile
// seeds, cached fixed points, frontier index, estimates and selections.
// got is a repaired pool, want a cold rebuild on the same graph.
func sameLTPoolBits(t *testing.T, label string, got, want *Pool, k int) {
	t.Helper()
	eq := func(what string, a, b interface{}) {
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("%s: %s differ:\n got %v\nwant %v", label, what, a, b)
		}
	}
	eq("profile seeds, fixed points and frontier index", dumpPool(got), dumpPool(want))
	eq("baseSum", got.kernel.BaseSum(), want.kernel.BaseSum())
	eq("BaseSpread", got.BaseSpread(), want.BaseSpread())

	boost := []int32{int32(1 % got.Graph().N()), int32(5 % got.Graph().N())}
	ge, err := got.EstimateSpread(boost)
	if err != nil {
		t.Fatalf("%s: EstimateSpread: %v", label, err)
	}
	we, err := want.EstimateSpread(boost)
	if err != nil {
		t.Fatalf("%s: EstimateSpread (cold): %v", label, err)
	}
	eq("EstimateSpread", ge, we)
	// The incremental estimate must still agree with the full
	// re-simulation reference on the repaired pool's graph.
	eq("EstimateSpread vs naive", ge, got.estimateSpreadNaive(boost))

	gb, gv, err := got.GreedyBoost(k, 0)
	if err != nil {
		t.Fatalf("%s: GreedyBoost: %v", label, err)
	}
	wb, wv, err := want.GreedyBoost(k, 0)
	if err != nil {
		t.Fatalf("%s: GreedyBoost (cold): %v", label, err)
	}
	eq("GreedyBoost", gb, wb)
	eq("GreedyBoost value", gv, wv)
}

// TestLTRepairMatchesColdRebuild is the LT equivalence property:
// applying staged delta sequences and repairing after each must leave
// the pool bit-identical to a cold pool built on the final graph at the
// same (seed, profiles), across worker counts.
func TestLTRepairMatchesColdRebuild(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		for _, workers := range []int{1, 2, 7} {
			tr := rng.New(uint64(trial)*211 + uint64(workers)*29 + 3)
			g := testutil.RandomGraph(tr, 25+tr.Intn(20), 120+tr.Intn(80), 0.5)
			seeds := testutil.RandomSeedSet(tr, g.N(), 1+tr.Intn(2))
			k := 2 + tr.Intn(3)
			seed := uint64(trial)*577 + 19

			pool, err := NewPool(g, seeds, seed, workers)
			if err != nil {
				t.Fatal(err)
			}
			pool.Extend(500)

			batches := 1 + tr.Intn(3)
			for b := 0; b < batches; b++ {
				d := randomLTDelta(t, tr, g, 1+tr.Intn(4), tr.Intn(4), tr.Intn(4))
				g2, eff, err := g.ApplyDelta(d)
				if err != nil {
					t.Fatalf("ApplyDelta: %v", err)
				}
				wantGen := pool.Generation() + 1
				touched, ok, err := pool.Repair(g2, eff.DirtyOut, eff.DirtyIn, 1.0)
				if err != nil {
					t.Fatalf("Repair: %v", err)
				}
				if !ok {
					t.Fatalf("Repair declined at maxFrac=1.0 (touched %d)", touched)
				}
				if touched < 0 || touched > pool.NumProfiles() {
					t.Fatalf("touched %d out of range [0,%d]", touched, pool.NumProfiles())
				}
				if pool.Generation() != wantGen {
					t.Fatalf("generation %d after repair, want %d", pool.Generation(), wantGen)
				}
				if pool.Graph() != g2 {
					t.Fatal("pool graph not swapped")
				}
				g = g2

				cold, err := NewPool(g2, seeds, seed, 1)
				if err != nil {
					t.Fatal(err)
				}
				cold.Extend(500)
				label := fmt.Sprintf("trial %d workers %d batch %d (touched %d)",
					trial, workers, b, touched)
				sameLTPoolBits(t, label, pool, cold, k)

				// Growing a repaired pool must match growing the cold one:
				// the root RNG state survived the repair.
				if b == batches-1 {
					pool.Extend(600)
					cold.Extend(600)
					sameLTPoolBits(t, label+" post-grow", pool, cold, k)
				}
			}
		}
	}
}

// TestLTRepairNormsMatchNew pins Repair's incremental normalizers: after
// every staged random delta the repaired pool's Norms must equal a
// fresh New(g2).Norms() bit for bit, and the normalizers the pool
// handed out before the repair must be left as they were.
func TestLTRepairNormsMatchNew(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		tr := rng.New(uint64(trial)*389 + 5)
		g := testutil.RandomGraph(tr, 15+tr.Intn(30), 60+tr.Intn(240), 0.5)
		pool, err := NewPool(g, testutil.RandomSeedSet(tr, g.N(), 1+tr.Intn(2)), uint64(trial), 1+trial%3)
		if err != nil {
			t.Fatal(err)
		}
		pool.Extend(50)
		for b := 0; b < 4; b++ {
			d := randomLTDelta(t, tr, g, tr.Intn(6), tr.Intn(6), tr.Intn(6))
			g2, eff, err := g.ApplyDelta(d)
			if err != nil {
				t.Fatalf("ApplyDelta: %v", err)
			}
			before := pool.Norms()
			if _, ok, err := pool.Repair(g2, eff.DirtyOut, eff.DirtyIn, 1.0); err != nil || !ok {
				t.Fatalf("Repair: ok=%v err=%v", ok, err)
			}
			sameBits := func(what string, got, want []float64) {
				t.Helper()
				for v := range want {
					if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
						t.Fatalf("trial %d batch %d: %s norm[%d] = %v, want %v", trial, b, what, v, got[v], want[v])
					}
				}
			}
			sameBits("pre-repair", before, New(g).Norms())
			sameBits("repaired", pool.Norms(), New(g2).Norms())
			if moved := !slices.Equal(before, pool.Norms()); sameArray(before, pool.Norms()) == moved {
				t.Fatalf("trial %d batch %d: normalizers moved %v, but the repaired slice is shared %v", trial, b, moved, !moved)
			}
			g = g2
		}
	}

	// Two edges into node 0 with Σp′ = 0.5: reweighting one of them to
	// p′ = 0.65 leaves max(1, Σp′) at 1 and the slice shared; then
	// p′ = 0.95 lifts it to 1.2, which must go to a new slice.
	b := graph.NewBuilder(3)
	b.MustAddEdge(1, 0, 0.1, 0.25)
	b.MustAddEdge(2, 0, 0.1, 0.25)
	g := b.MustBuild()
	pool, err := NewPool(g, []int32{1}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool.Extend(20)
	for _, tc := range []struct {
		pb     float64
		shared bool
	}{{0.65, true}, {0.95, false}} {
		g2, eff, err := pool.Graph().ApplyDelta(&graph.EdgeDelta{Reweight: []graph.Edge{{From: 2, To: 0, P: 0.1, PBoost: tc.pb}}})
		if err != nil {
			t.Fatal(err)
		}
		before := pool.Norms()
		if _, ok, err := pool.Repair(g2, eff.DirtyOut, eff.DirtyIn, 1.0); err != nil || !ok {
			t.Fatalf("Repair: ok=%v err=%v", ok, err)
		}
		if got := sameArray(before, pool.Norms()); got != tc.shared || before[0] != 1 {
			t.Fatalf("reweight to %v: normalizers shared %v, want %v (old norm[0] = %v)", tc.pb, got, tc.shared, before[0])
		}
		if !slices.Equal(pool.Norms(), New(g2).Norms()) {
			t.Fatalf("reweight to %v: norms %v, want %v", tc.pb, pool.Norms(), New(g2).Norms())
		}
	}
}

// sameArray reports whether a and b start at the same backing array
// element.
func sameArray(a, b []float64) bool { return unsafe.SliceData(a) == unsafe.SliceData(b) }

// TestLTRepairFallback: when the touched fraction exceeds maxFrac,
// Repair must decline without mutating anything.
func TestLTRepairFallback(t *testing.T) {
	tr := rng.New(7)
	g := testutil.RandomGraph(tr, 20, 100, 0.5)
	seeds := testutil.RandomSeedSet(tr, g.N(), 2)
	pool, err := NewPool(g, seeds, 31, 2)
	if err != nil {
		t.Fatal(err)
	}
	pool.Extend(300)
	gen := pool.Generation()
	base := pool.BaseSpread()

	dirty := make([]bool, g.N())
	for i := range dirty {
		dirty[i] = true
	}
	g2, _, err := g.ApplyDelta(&graph.EdgeDelta{})
	if err != nil {
		t.Fatal(err)
	}
	touched, ok, err := pool.Repair(g2, dirty, dirty, 0.01)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if ok {
		t.Fatalf("Repair accepted %d touched profiles above 1%% threshold", touched)
	}
	if touched == 0 {
		t.Fatal("all-dirty repair touched no profiles")
	}
	if pool.Generation() != gen || pool.Graph() != g || pool.BaseSpread() != base {
		t.Fatal("declined repair mutated the pool")
	}
	if _, ok, err := pool.Repair(g2, dirty, dirty, 1.0); err != nil || !ok {
		t.Fatalf("unrestricted repair failed: ok=%v err=%v", ok, err)
	}
}

// TestLTRepairRejectsNodeCountChange: deltas never change the node
// universe.
func TestLTRepairRejectsNodeCountChange(t *testing.T) {
	tr := rng.New(2)
	g := testutil.RandomGraph(tr, 10, 30, 0.5)
	g2 := testutil.RandomGraph(tr, 11, 30, 0.5)
	pool, err := NewPool(g, []int32{0}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool.Extend(50)
	if _, _, err := pool.Repair(g2, make([]bool, g2.N()), make([]bool, g2.N()), 1.0); err == nil {
		t.Fatal("Repair accepted a node-count change")
	}
	if _, _, err := pool.Repair(g, make([]bool, 3), make([]bool, g.N()), 1.0); err == nil {
		t.Fatal("Repair accepted a mis-sized dirty mask")
	}
}
