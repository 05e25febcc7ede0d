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

// crossingGraph returns a random graph on n nodes plus extra nodes that
// have out-edges but no in-edges, so no profile activates them unless
// they are seeds (they never are here).
func crossingGraph(t *testing.T, r *rng.Source, n, m, extra int) *graph.Graph {
	t.Helper()
	edges := testutil.RandomGraph(r, n, m, 0.3).Edges()
	for u := n; u < n+extra; u++ {
		for _, v := range r.Perm(n)[:3] {
			p := r.Float64() * 0.5
			edges = append(edges, graph.Edge{From: int32(u), To: int32(v), P: p, PBoost: 1 - (1-p)*(1-p)})
		}
	}
	g, err := graph.FromEdges(n+extra, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// crossingDelta is one delta family of TestLTRepairExactCrossing.
type crossingDelta struct {
	name string
	// build returns a delta against g, p's graph, and the exact number
	// of p's profiles it must re-simulate.
	build func(g *graph.Graph, r *rng.Source, p *Pool) (d *graph.EdgeDelta, want int)
}

// inSumP returns Σ p′ over v's in-edges.
func inSumP(g *graph.Graph, v int32) float64 {
	var s float64
	for _, pb := range g.InPBoost(v) {
		s += pb
	}
	return s
}

var crossingDeltas = []crossingDelta{
	{"in-edges of seeds", func(g *graph.Graph, r *rng.Source, p *Pool) (*graph.EdgeDelta, int) {
		d := &graph.EdgeDelta{}
		seed := p.kernel.SeedMask()
		for _, s := range p.Seeds() {
			from := g.InFrom(s)
			for j, u := range from {
				switch j % 3 {
				case 0:
					d.Remove = append(d.Remove, graph.EdgeKey{From: u, To: s})
				case 1:
					d.Reweight = append(d.Reweight, graph.Edge{From: u, To: s, P: 0.9, PBoost: 1})
				}
			}
			// New in-edges from nodes active in most profiles.
			for u := int32(0); int(u) < g.N(); u++ {
				if _, _, ok := g.FindEdge(u, s); !ok && u != s && !seed[u] {
					d.Add = append(d.Add, graph.Edge{From: u, To: s, P: 0.7, PBoost: 0.8})
				}
			}
		}
		return d, 0
	}},
	{"seed to seed edges", func(g *graph.Graph, r *rng.Source, p *Pool) (*graph.EdgeDelta, int) {
		d := &graph.EdgeDelta{}
		for _, s := range p.Seeds() {
			for _, s2 := range p.Seeds() {
				_, _, ok := g.FindEdge(s, s2)
				switch {
				case s == s2:
				case !ok:
					d.Add = append(d.Add, graph.Edge{From: s, To: s2, P: 0.6, PBoost: 0.9})
				case r.Intn(2) == 0:
					d.Remove = append(d.Remove, graph.EdgeKey{From: s, To: s2})
				default:
					d.Reweight = append(d.Reweight, graph.Edge{From: s, To: s2, P: 1, PBoost: 1})
				}
			}
		}
		return d, 0
	}},
	{"edges out of never-active nodes", func(g *graph.Graph, r *rng.Source, p *Pool) (*graph.EdgeDelta, int) {
		act, _ := reached(p)
		sum := make([]float64, g.N()) // Σp′ into each node, as the delta goes
		for v := range sum {
			sum[v] = inSumP(g, int32(v))
		}
		d := &graph.EdgeDelta{}
		for u := int32(0); int(u) < g.N(); u++ {
			if act[u] {
				continue
			}
			// Base probabilities and members change; no normalizer moves.
			for j, v := range g.OutTo(u) {
				switch {
				case j%2 == 0 && sum[v] <= 1:
					d.Remove = append(d.Remove, graph.EdgeKey{From: u, To: v})
					sum[v] -= g.OutPBoost(u)[j]
				default:
					d.Reweight = append(d.Reweight, graph.Edge{From: u, To: v, P: g.OutP(u)[j] / 2, PBoost: g.OutPBoost(u)[j]})
				}
			}
			for v := int32(0); int(v) < g.N(); v++ {
				if _, _, ok := g.FindEdge(u, v); !ok && u != v && sum[v] <= 0.8 {
					d.Add = append(d.Add, graph.Edge{From: u, To: v, P: 0.1, PBoost: 0.2})
					sum[v] += 0.2
					break
				}
			}
		}
		return d, 0
	}},
	{"boosted probabilities only", func(g *graph.Graph, r *rng.Source, p *Pool) (*graph.EdgeDelta, int) {
		d := &graph.EdgeDelta{}
		for _, e := range g.Edges() {
			// Lowering p′ keeps max(1, Σp′) at 1 where it is 1.
			if e.PBoost > e.P && inSumP(g, e.To) <= 1 {
				d.Reweight = append(d.Reweight, graph.Edge{From: e.From, To: e.To, P: e.P, PBoost: (e.P + e.PBoost) / 2})
			}
		}
		return d, 0
	}},
	{"one frontier node's normalizer", func(g *graph.Graph, r *rng.Source, p *Pool) (*graph.EdgeDelta, int) {
		// An edge with p = 0 and p′ = 1 from a node no profile activates
		// into a frontier node moves only that node's normalizer: exactly
		// the profiles holding it in their active set or frontier change.
		act, front := reached(p)
		for v := int32(0); int(v) < g.N(); v++ {
			if !front[v] || inSumP(g, v) == 0 {
				continue
			}
			for u := int32(0); int(u) < g.N(); u++ {
				if _, _, ok := g.FindEdge(u, v); act[u] || ok || u == v {
					continue
				}
				want := 0
				for pi := 0; pi < p.NumProfiles(); pi++ {
					pr := p.kernel.Profile(pi)
					if slices.Contains(pr.Active, v) || slices.Contains(pr.Front, v) {
						want++
					}
				}
				return &graph.EdgeDelta{Add: []graph.Edge{{From: u, To: v, P: 0, PBoost: 1}}}, want
			}
		}
		return nil, 0
	}},
}

// reached marks the nodes some profile of p activates (act) and those
// some profile holds in its frontier (front).
func reached(p *Pool) (act, front []bool) {
	n := p.Graph().N()
	act, front = make([]bool, n), make([]bool, n)
	for pi := 0; pi < p.NumProfiles(); pi++ {
		pr := p.kernel.Profile(pi)
		for _, v := range pr.Active {
			act[v] = true
		}
		for _, v := range pr.Front {
			front[v] = true
		}
	}
	return act, front
}

// TestLTRepairExactCrossing pins Repair's crossing test to the
// cascade's exact dependence on the graph: deltas on edges into seeds,
// between seeds, out of nodes no profile activates, or on boosted
// probabilities alone change no profile, so they must re-simulate
// nothing; a delta that moves one frontier node's normalizer must
// re-simulate exactly the profiles holding that node. Either way the
// repaired pool must equal a cold build bit for bit.
func TestLTRepairExactCrossing(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		for _, workers := range []int{1, 2, 7} {
			for _, tc := range crossingDeltas {
				tr := rng.New(uint64(trial)*131 + uint64(workers)*17 + 11)
				g := crossingGraph(t, tr, 25+tr.Intn(15), 70+tr.Intn(50), 4)
				seeds := testutil.RandomSeedSet(tr, g.N()-4, 2+tr.Intn(2))
				seed := uint64(trial)*97 + 3
				pool, err := NewPool(g, seeds, seed, workers)
				if err != nil {
					t.Fatal(err)
				}
				pool.Extend(400)
				label := fmt.Sprintf("trial %d workers %d %s", trial, workers, tc.name)
				d, want := tc.build(g, tr, pool)
				if d == nil || d.Ops() == 0 {
					t.Fatalf("%s: no delta to apply", label)
				}
				g2, eff, err := g.ApplyDelta(d)
				if err != nil {
					t.Fatalf("%s: ApplyDelta: %v", label, err)
				}
				// Not vacuous: the delta dirties a list that some profile's
				// cascade reads.
				read := false
				for pi := 0; pi < pool.NumProfiles() && !read; pi++ {
					pr := pool.kernel.Profile(pi)
					read = slices.ContainsFunc(pr.Active, func(v int32) bool { return eff.DirtyOut[v] || eff.DirtyIn[v] }) ||
						slices.ContainsFunc(pr.Front, func(v int32) bool { return eff.DirtyIn[v] })
				}
				if !read {
					t.Fatalf("%s: the delta dirties no list a profile reads", label)
				}
				touched, ok, err := pool.Repair(g2, eff.DirtyOut, eff.DirtyIn, 1.0)
				if err != nil || !ok {
					t.Fatalf("%s: Repair: ok=%v err=%v", label, ok, err)
				}
				if touched != want {
					t.Fatalf("%s: re-simulated %d profiles, want %d", label, touched, want)
				}
				cold, err := NewPool(g2, seeds, seed, 1)
				if err != nil {
					t.Fatal(err)
				}
				cold.Extend(400)
				sameLTPoolBits(t, label, pool, cold, 3)
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
// Repair must decline without mutating anything. Reweighting every
// out-edge of a seed changes every profile: the seed is active in all
// of them.
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

	d := &graph.EdgeDelta{}
	s := seeds[0]
	for j, v := range g.OutTo(s) {
		d.Reweight = append(d.Reweight, graph.Edge{From: s, To: v, P: g.OutP(s)[j] / 2, PBoost: g.OutPBoost(s)[j]})
	}
	if len(d.Reweight) == 0 {
		t.Fatalf("seed %d has no out-edge", s)
	}
	g2, eff, err := g.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	touched, ok, err := pool.Repair(g2, eff.DirtyOut, eff.DirtyIn, 0.01)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if ok {
		t.Fatalf("Repair accepted %d touched profiles above 1%% threshold", touched)
	}
	if touched != pool.NumProfiles() {
		t.Fatalf("reweighting a seed's out-edges touched %d of %d profiles", touched, pool.NumProfiles())
	}
	if pool.Generation() != gen || pool.Graph() != g || pool.BaseSpread() != base {
		t.Fatal("declined repair mutated the pool")
	}
	if _, ok, err := pool.Repair(g2, eff.DirtyOut, eff.DirtyIn, 1.0); err != nil || !ok {
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
