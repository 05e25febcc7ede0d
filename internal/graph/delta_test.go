package graph

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/kboost/kboost/internal/rng"
)

// graphsIdentical asserts every CSR array of got matches want exactly —
// the bit-identity contract ApplyDelta promises against FromEdges.
func graphsIdentical(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.n != want.n {
		t.Fatalf("node count %d, want %d", got.n, want.n)
	}
	check := func(name string, a, b interface{}) {
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s differs:\n got %v\nwant %v", name, a, b)
		}
	}
	check("outStart", got.outStart, want.outStart)
	check("outTo", got.outTo, want.outTo)
	check("outP", got.outP, want.outP)
	check("outPB", got.outPB, want.outPB)
	check("inStart", got.inStart, want.inStart)
	check("inFrom", got.inFrom, want.inFrom)
	check("inP", got.inP, want.inP)
	check("inPB", got.inPB, want.inPB)
}

// randomTestGraph builds a random graph over n nodes with roughly m
// distinct directed edges.
func randomTestGraph(t testing.TB, r *rng.Source, n, m int) *Graph {
	t.Helper()
	seen := map[EdgeKey]bool{}
	var edges []Edge
	for len(edges) < m {
		u := int32(r.Intn(n))
		v := int32(r.Intn(n))
		if u == v || seen[EdgeKey{u, v}] {
			continue
		}
		seen[EdgeKey{u, v}] = true
		p := r.Float64()
		pb := p + (1-p)*r.Float64()
		edges = append(edges, Edge{From: u, To: v, P: p, PBoost: pb})
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

// randomDelta derives a random valid delta against g: removals and
// reweights sampled from existing edges, adds from absent pairs.
func randomDelta(t testing.TB, r *rng.Source, g *Graph, nAdd, nRemove, nReweight int) *EdgeDelta {
	t.Helper()
	existing := g.Edges()
	present := make(map[EdgeKey]bool, len(existing))
	for _, e := range existing {
		present[EdgeKey{e.From, e.To}] = true
	}
	used := map[EdgeKey]bool{}
	d := &EdgeDelta{}
	perm := r.Perm(len(existing))
	pi := 0
	takeExisting := func() (Edge, bool) {
		for pi < len(perm) {
			e := existing[perm[pi]]
			pi++
			k := EdgeKey{e.From, e.To}
			if !used[k] {
				used[k] = true
				return e, true
			}
		}
		return Edge{}, false
	}
	for i := 0; i < nRemove; i++ {
		if e, ok := takeExisting(); ok {
			d.Remove = append(d.Remove, EdgeKey{e.From, e.To})
		}
	}
	for i := 0; i < nReweight; i++ {
		if e, ok := takeExisting(); ok {
			p := r.Float64()
			e.P, e.PBoost = p, p+(1-p)*r.Float64()
			d.Reweight = append(d.Reweight, e)
		}
	}
	for tries := 0; len(d.Add) < nAdd && tries < 50*nAdd+100; tries++ {
		u := int32(r.Intn(g.N()))
		v := int32(r.Intn(g.N()))
		k := EdgeKey{u, v}
		if u == v || present[k] || used[k] {
			continue
		}
		used[k] = true
		p := r.Float64()
		d.Add = append(d.Add, Edge{From: u, To: v, P: p, PBoost: p + (1-p)*r.Float64()})
	}
	return d
}

// applyDeltaToEdgeList applies d to an edge list the slow obvious way,
// for building the FromEdges reference.
func applyDeltaToEdgeList(edges []Edge, d *EdgeDelta) []Edge {
	drop := make(map[EdgeKey]bool, len(d.Remove))
	for _, k := range d.Remove {
		drop[k] = true
	}
	rw := make(map[EdgeKey]Edge, len(d.Reweight))
	for _, e := range d.Reweight {
		rw[EdgeKey{e.From, e.To}] = e
	}
	var out []Edge
	for _, e := range edges {
		k := EdgeKey{e.From, e.To}
		if drop[k] {
			continue
		}
		if ne, ok := rw[k]; ok {
			e = ne
		}
		out = append(out, e)
	}
	return append(out, d.Add...)
}

// TestApplyDeltaMatchesRebuild is the canonical-layout equivalence gate:
// patching the CSR in place must produce exactly what FromEdges builds
// from the post-delta edge list, across random graphs, delta mixes, and
// staged multi-batch sequences.
func TestApplyDeltaMatchesRebuild(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(40)
		maxM := n * (n - 1)
		m := r.Intn(maxM/2 + 1)
		g := randomTestGraph(t, r, n, m)
		edges := g.Edges()
		// Staged sequence of 1–3 deltas applied to the same lineage.
		batches := 1 + r.Intn(3)
		for b := 0; b < batches; b++ {
			d := randomDelta(t, r, g,
				r.Intn(5), r.Intn(4), r.Intn(4))
			if d.Ops() == 0 {
				d.Add = append(d.Add, pickAbsentEdge(t, r, g))
			}
			ng, eff, err := g.ApplyDelta(d)
			if err != nil {
				t.Fatalf("trial %d batch %d: ApplyDelta: %v (delta %+v)", trial, b, err, d)
			}
			if err := ng.Validate(); err != nil {
				t.Fatalf("trial %d batch %d: patched graph invalid: %v", trial, b, err)
			}
			edges = applyDeltaToEdgeList(edges, d)
			want, err := FromEdges(n, edges)
			if err != nil {
				t.Fatalf("trial %d batch %d: reference FromEdges: %v", trial, b, err)
			}
			graphsIdentical(t, ng, want)
			checkDeltaEffect(t, g, ng, d, eff)
			// g must be untouched by the patch.
			if b == 0 {
				prev, err := FromEdges(n, g.Edges())
				if err != nil {
					t.Fatalf("re-deriving pre-delta graph: %v", err)
				}
				graphsIdentical(t, g, prev)
			}
			g = ng
		}
	}
}

func pickAbsentEdge(t testing.TB, r *rng.Source, g *Graph) Edge {
	t.Helper()
	present := map[EdgeKey]bool{}
	for _, e := range g.Edges() {
		present[EdgeKey{e.From, e.To}] = true
	}
	for tries := 0; tries < 10000; tries++ {
		u := int32(r.Intn(g.N()))
		v := int32(r.Intn(g.N()))
		if u != v && !present[EdgeKey{u, v}] {
			return Edge{From: u, To: v, P: 0.5, PBoost: 0.75}
		}
	}
	t.Fatal("no absent edge found")
	return Edge{}
}

// checkDeltaEffect asserts the dirty masks are exactly the endpoints the
// delta names — no more, no fewer — and the counts agree.
func checkDeltaEffect(t *testing.T, oldG, newG *Graph, d *EdgeDelta, eff *DeltaEffect) {
	t.Helper()
	wantOut := make([]bool, oldG.N())
	wantIn := make([]bool, oldG.N())
	mark := func(u, v int32) {
		wantOut[u] = true
		wantIn[v] = true
	}
	for _, e := range d.Add {
		mark(e.From, e.To)
	}
	for _, k := range d.Remove {
		mark(k.From, k.To)
	}
	for _, e := range d.Reweight {
		mark(e.From, e.To)
	}
	if !reflect.DeepEqual(eff.DirtyOut, wantOut) || !reflect.DeepEqual(eff.DirtyIn, wantIn) {
		t.Fatalf("dirty masks wrong:\n out %v want %v\n in %v want %v",
			eff.DirtyOut, wantOut, eff.DirtyIn, wantIn)
	}
	co, ci := 0, 0
	for i := range wantOut {
		if wantOut[i] {
			co++
		}
		if wantIn[i] {
			ci++
		}
	}
	if eff.DirtyOutCount != co || eff.DirtyInCount != ci {
		t.Fatalf("dirty counts %d/%d, want %d/%d", eff.DirtyOutCount, eff.DirtyInCount, co, ci)
	}
	if eff.Added != len(d.Add) || eff.Removed != len(d.Remove) || eff.Reweighted != len(d.Reweight) {
		t.Fatalf("op counts %d/%d/%d, want %d/%d/%d",
			eff.Added, eff.Removed, eff.Reweighted, len(d.Add), len(d.Remove), len(d.Reweight))
	}
}

// TestApplyDeltaErrors covers every rejection path.
func TestApplyDeltaErrors(t *testing.T) {
	b := NewBuilder(4)
	b.MustAddEdge(0, 1, 0.5, 0.75)
	b.MustAddEdge(1, 2, 0.25, 0.5)
	g := b.MustBuild()

	cases := []struct {
		name string
		d    EdgeDelta
		want string
	}{
		{"add existing", EdgeDelta{Add: []Edge{{From: 0, To: 1, P: 0.1, PBoost: 0.2}}}, "adds existing edge"},
		{"remove missing", EdgeDelta{Remove: []EdgeKey{{From: 2, To: 3}}}, "remove of missing edge"},
		{"reweight missing", EdgeDelta{Reweight: []Edge{{From: 3, To: 0, P: 0.1, PBoost: 0.2}}}, "reweight of missing edge"},
		{"duplicate ops", EdgeDelta{
			Remove:   []EdgeKey{{From: 0, To: 1}},
			Reweight: []Edge{{From: 0, To: 1, P: 0.1, PBoost: 0.2}},
		}, "multiple operations"},
		{"duplicate adds", EdgeDelta{Add: []Edge{
			{From: 2, To: 3, P: 0.1, PBoost: 0.2},
			{From: 2, To: 3, P: 0.3, PBoost: 0.4},
		}}, "multiple operations"},
		{"add out of range", EdgeDelta{Add: []Edge{{From: 0, To: 4, P: 0.1, PBoost: 0.2}}}, "out of range"},
		{"remove negative", EdgeDelta{Remove: []EdgeKey{{From: -1, To: 1}}}, "out of range"},
		{"add self loop", EdgeDelta{Add: []Edge{{From: 2, To: 2, P: 0.1, PBoost: 0.2}}}, "self loop"},
		{"add NaN", EdgeDelta{Add: []Edge{{From: 2, To: 3, P: math.NaN(), PBoost: 0.2}}}, ""},
		{"add pBoost below p", EdgeDelta{Add: []Edge{{From: 2, To: 3, P: 0.9, PBoost: 0.1}}}, ""},
		{"reweight above one", EdgeDelta{Reweight: []Edge{{From: 0, To: 1, P: 0.5, PBoost: 1.5}}}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ng, eff, err := g.ApplyDelta(&tc.d)
			if err == nil {
				t.Fatalf("ApplyDelta accepted invalid delta %+v", tc.d)
			}
			if ng != nil || eff != nil {
				t.Fatalf("error return carried non-nil results")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestApplyDeltaEmpty applies a zero-op delta: the result must be a
// distinct but identical graph with all-false masks.
func TestApplyDeltaEmpty(t *testing.T) {
	r := rng.New(5)
	g := randomTestGraph(t, r, 10, 25)
	ng, eff, err := g.ApplyDelta(&EdgeDelta{})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	graphsIdentical(t, ng, g)
	if ng == g {
		t.Fatal("ApplyDelta returned the receiver")
	}
	if eff.DirtyOutCount != 0 || eff.DirtyInCount != 0 {
		t.Fatalf("empty delta dirtied nodes: %+v", eff)
	}
}

// TestApplyDeltaRemoveAll empties the graph entirely.
func TestApplyDeltaRemoveAll(t *testing.T) {
	r := rng.New(9)
	g := randomTestGraph(t, r, 6, 12)
	d := &EdgeDelta{}
	for _, e := range g.Edges() {
		d.Remove = append(d.Remove, EdgeKey{e.From, e.To})
	}
	ng, _, err := g.ApplyDelta(d)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if ng.M() != 0 {
		t.Fatalf("graph has %d edges after removing all", ng.M())
	}
	if err := ng.Validate(); err != nil {
		t.Fatalf("emptied graph invalid: %v", err)
	}
}

// edgeCaseGraph is a 6-node graph in which node 4 has no edges at all,
// followed by tail more isolated nodes.
func edgeCaseGraph(t testing.TB, tail int) *Graph {
	t.Helper()
	g, err := FromEdges(6+tail, []Edge{
		{From: 0, To: 1, P: 0.5, PBoost: 0.75}, {From: 0, To: 3, P: 0.25, PBoost: 0.5},
		{From: 1, To: 2, P: 0.125, PBoost: 0.25}, {From: 2, To: 0, P: 0.5, PBoost: 0.5},
		{From: 2, To: 3, P: 0, PBoost: 1}, {From: 3, To: 5, P: 0.375, PBoost: 0.625},
		{From: 5, To: 0, P: 0.25, PBoost: 0.875}, {From: 5, To: 2, P: 0.75, PBoost: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestApplyDeltaEdgeCases pins the block copy at the places a block
// starts, ends or is empty: dirty nodes at either end of the id range,
// adjacent dirty nodes, no untouched node at all, a long untouched
// tail, and adds into empty runs. Each result must equal the FromEdges
// rebuild of the post-delta edge list. The last cases put one invalid
// op after valid ops on earlier nodes, so their runs and the blocks
// between them are already written when it fails: the error text must
// be the one ApplyDelta has always given, and g must be unchanged.
func TestApplyDeltaEdgeCases(t *testing.T) {
	e := func(u, v int32) Edge { return Edge{From: u, To: v, P: 0.0625, PBoost: 0.5} }
	k := func(u, v int32) EdgeKey { return EdgeKey{From: u, To: v} }
	cases := []struct {
		name string
		tail int // isolated nodes after node 5
		d    EdgeDelta
		err  string // the exact error, when the delta is invalid
	}{
		{"out of node 0 only", 0, EdgeDelta{Add: []Edge{e(0, 5)}, Remove: []EdgeKey{k(0, 3)}, Reweight: []Edge{e(0, 1)}}, ""},
		{"into node 0 only", 0, EdgeDelta{Add: []Edge{e(3, 0)}, Remove: []EdgeKey{k(5, 0)}, Reweight: []Edge{e(2, 0)}}, ""},
		{"out of node n-1 only", 0, EdgeDelta{Add: []Edge{e(5, 1)}, Remove: []EdgeKey{k(5, 0)}, Reweight: []Edge{e(5, 2)}}, ""},
		{"into node n-1 only", 0, EdgeDelta{Add: []Edge{e(1, 5), e(0, 5)}, Remove: []EdgeKey{k(3, 5)}}, ""},
		{"adjacent dirty nodes", 0, EdgeDelta{Add: []Edge{e(3, 4)}, Remove: []EdgeKey{k(1, 2)}, Reweight: []Edge{e(2, 3)}}, ""},
		{"every node dirty", 0, EdgeDelta{
			Add:      []Edge{e(3, 4), e(4, 5)},
			Remove:   []EdgeKey{k(0, 1), k(2, 3)},
			Reweight: []Edge{e(1, 2), e(5, 0)},
		}, ""},
		{"one op, isolated tail", 20, EdgeDelta{Add: []Edge{e(1, 3)}}, ""},
		{"add into empty runs", 0, EdgeDelta{Add: []Edge{e(4, 1), e(2, 4)}}, ""},
		{"remove of a missing edge on node n-1", 0, EdgeDelta{Reweight: []Edge{e(0, 1), e(3, 5)}, Remove: []EdgeKey{k(5, 1)}},
			"graph: delta remove of missing edge (5,1)"},
		{"add of an existing edge on node n-1", 0, EdgeDelta{Reweight: []Edge{e(0, 1), e(3, 5)}, Add: []Edge{e(5, 2)}},
			"graph: delta adds existing edge (5,2)"},
		{"reweight of a missing edge on an empty run", 0, EdgeDelta{Add: []Edge{e(0, 4)}, Reweight: []Edge{e(4, 5)}},
			"graph: delta reweight of missing edge (4,5)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := edgeCaseGraph(t, tc.tail)
			before, err := FromEdges(g.N(), g.Edges())
			if err != nil {
				t.Fatal(err)
			}
			ng, eff, err := g.ApplyDelta(&tc.d)
			if tc.err != "" {
				if err == nil || err.Error() != tc.err {
					t.Fatalf("error %v, want %q", err, tc.err)
				}
				if ng != nil || eff != nil {
					t.Fatal("error return carried non-nil results")
				}
				graphsIdentical(t, g, before)
				return
			}
			if err != nil {
				t.Fatalf("ApplyDelta: %v", err)
			}
			want, err := FromEdges(g.N(), applyDeltaToEdgeList(g.Edges(), &tc.d))
			if err != nil {
				t.Fatalf("reference FromEdges: %v", err)
			}
			graphsIdentical(t, ng, want)
			checkDeltaEffect(t, g, ng, &tc.d, eff)
		})
	}
}

// TestEdgeDeltaRoundTrip checks the KBD1 codec reproduces deltas
// bit-exactly, including float payloads and empty sections.
func TestEdgeDeltaRoundTrip(t *testing.T) {
	cases := []*EdgeDelta{
		{},
		{Add: []Edge{{From: 0, To: 1, P: 0.25, PBoost: 0.5}}},
		{
			Add:      []Edge{{From: 3, To: 7, P: 0.1, PBoost: 0.9}, {From: 1, To: 0, P: 0, PBoost: 1}},
			Remove:   []EdgeKey{{From: 5, To: 6}},
			Reweight: []Edge{{From: 2, To: 4, P: 0.125, PBoost: 0.625}},
		},
	}
	for i, d := range cases {
		t.Run(fmt.Sprintf("case%d", i), func(t *testing.T) {
			var buf bytes.Buffer
			if err := d.WriteEdgeDelta(&buf); err != nil {
				t.Fatalf("WriteEdgeDelta: %v", err)
			}
			got, err := ReadEdgeDelta(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("ReadEdgeDelta: %v", err)
			}
			if !deltasEqual(got, d) {
				t.Fatalf("round trip changed the delta:\n got %+v\nwant %+v", got, d)
			}
		})
	}
}

// deltasEqual compares two deltas bit-exactly; float payloads compare
// by bit pattern so fuzz-decoded NaNs round-trip as equal.
func deltasEqual(a, b *EdgeDelta) bool {
	if len(a.Add) != len(b.Add) || len(a.Remove) != len(b.Remove) || len(a.Reweight) != len(b.Reweight) {
		return false
	}
	edgeEq := func(x, y Edge) bool {
		return x.From == y.From && x.To == y.To &&
			mathFloat64bits(x.P) == mathFloat64bits(y.P) &&
			mathFloat64bits(x.PBoost) == mathFloat64bits(y.PBoost)
	}
	for i := range a.Add {
		if !edgeEq(a.Add[i], b.Add[i]) {
			return false
		}
	}
	for i := range a.Remove {
		if a.Remove[i] != b.Remove[i] {
			return false
		}
	}
	for i := range a.Reweight {
		if !edgeEq(a.Reweight[i], b.Reweight[i]) {
			return false
		}
	}
	return true
}

// TestReadEdgeDeltaLimits covers the hostile-header guards.
func TestReadEdgeDeltaLimits(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		d := &EdgeDelta{Add: []Edge{{From: 0, To: 1, P: 0.5, PBoost: 0.75}}}
		if err := d.WriteEdgeDelta(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	t.Run("bad magic", func(t *testing.T) {
		if _, err := ReadEdgeDelta(bytes.NewReader([]byte("NOPE\x00\x00\x00\x00"))); err == nil {
			t.Fatal("accepted bad magic")
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		if _, err := ReadEdgeDelta(bytes.NewReader(valid[:9])); err == nil {
			t.Fatal("accepted truncated header")
		}
	})
	t.Run("truncated record", func(t *testing.T) {
		if _, err := ReadEdgeDelta(bytes.NewReader(valid[:len(valid)-5])); err == nil {
			t.Fatal("accepted truncated record")
		}
	})
	t.Run("over MaxEdges", func(t *testing.T) {
		var buf bytes.Buffer
		d := &EdgeDelta{
			Add:    []Edge{{From: 0, To: 1, P: 0.5, PBoost: 0.75}},
			Remove: []EdgeKey{{From: 1, To: 0}, {From: 2, To: 0}},
		}
		if err := d.WriteEdgeDelta(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadEdgeDeltaLimited(bytes.NewReader(buf.Bytes()), ReadLimits{MaxEdges: 2}); err == nil {
			t.Fatal("accepted delta above MaxEdges")
		}
		if _, err := ReadEdgeDeltaLimited(bytes.NewReader(buf.Bytes()), ReadLimits{MaxEdges: 3}); err != nil {
			t.Fatalf("rejected delta at MaxEdges: %v", err)
		}
	})
	t.Run("int32 overflow header", func(t *testing.T) {
		// Three maxed uint32 counts: total must be computed at 64-bit
		// width and rejected, not wrapped.
		hostile := make([]byte, 16)
		copy(hostile, "KBD1")
		for i := 4; i < 16; i++ {
			hostile[i] = 0xFF
		}
		_, err := ReadEdgeDelta(bytes.NewReader(hostile))
		if err == nil || !strings.Contains(err.Error(), "int32 layout") {
			t.Fatalf("hostile header error = %v, want int32 layout rejection", err)
		}
	})
}
