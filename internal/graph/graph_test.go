package graph

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/kboost/kboost/internal/rng"
)

func mustTriangle(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(3)
	b.MustAddEdge(0, 1, 0.5, 0.8)
	b.MustAddEdge(1, 2, 0.3, 0.5)
	b.MustAddEdge(2, 0, 0.1, 0.2)
	return b.MustBuild()
}

func TestBuilderBasics(t *testing.T) {
	g := mustTriangle(t)
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("N=%d M=%d, want 3/3", g.N(), g.M())
	}
	if got := g.OutDegree(0); got != 1 {
		t.Fatalf("OutDegree(0)=%d", got)
	}
	if got := g.InDegree(0); got != 1 {
		t.Fatalf("InDegree(0)=%d", got)
	}
	p, pb, ok := g.FindEdge(0, 1)
	if !ok || p != 0.5 || pb != 0.8 {
		t.Fatalf("FindEdge(0,1) = %v %v %v", p, pb, ok)
	}
	if _, _, ok := g.FindEdge(1, 0); ok {
		t.Fatal("FindEdge(1,0) found a non-existent edge")
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := NewBuilder(2)
	if err := b.AddEdge(1, 1, 0.5, 0.6); err == nil {
		t.Fatal("self loop accepted")
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	if err := b.AddEdge(0, 2, 0.5, 0.6); err == nil {
		t.Fatal("out-of-range target accepted")
	}
	if err := b.AddEdge(-1, 0, 0.5, 0.6); err == nil {
		t.Fatal("negative source accepted")
	}
}

func TestBuilderRejectsBadProbabilities(t *testing.T) {
	b := NewBuilder(2)
	cases := []struct{ p, pb float64 }{
		{-0.1, 0.5}, {0.5, 1.1}, {0.6, 0.5}, {math.NaN(), 0.5}, {0.5, math.NaN()},
	}
	for _, c := range cases {
		if err := b.AddEdge(0, 1, c.p, c.pb); err == nil {
			t.Fatalf("accepted p=%v pb=%v", c.p, c.pb)
		}
	}
}

func TestBuilderRejectsDuplicateEdge(t *testing.T) {
	b := NewBuilder(3)
	b.MustAddEdge(0, 1, 0.5, 0.6)
	b.MustAddEdge(0, 2, 0.5, 0.6)
	b.MustAddEdge(0, 1, 0.4, 0.5)
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate edge accepted by Build")
	}
}

func TestEqualProbabilitiesAllowed(t *testing.T) {
	b := NewBuilder(2)
	if err := b.AddEdge(0, 1, 0.5, 0.5); err != nil {
		t.Fatalf("p == p' should be allowed (degenerate boosting): %v", err)
	}
}

func TestAdjacencySorted(t *testing.T) {
	b := NewBuilder(5)
	b.MustAddEdge(0, 4, 0.4, 0.5)
	b.MustAddEdge(0, 1, 0.1, 0.2)
	b.MustAddEdge(0, 3, 0.3, 0.4)
	g := b.MustBuild()
	to := g.OutTo(0)
	for i := 1; i < len(to); i++ {
		if to[i-1] >= to[i] {
			t.Fatalf("out adjacency not sorted: %v", to)
		}
	}
	// Probabilities must follow their edges through the sort.
	p, _, _ := g.FindEdge(0, 3)
	if p != 0.3 {
		t.Fatalf("probability misaligned after sort: %v", p)
	}
}

func TestInOutMirror(t *testing.T) {
	g := mustTriangle(t)
	for u := int32(0); u < 3; u++ {
		to := g.OutTo(u)
		p := g.OutP(u)
		for i, v := range to {
			found := false
			from := g.InFrom(v)
			ip := g.InP(v)
			for j, w := range from {
				if w == u {
					found = true
					if ip[j] != p[i] {
						t.Fatalf("in/out probability mismatch on (%d,%d)", u, v)
					}
				}
			}
			if !found {
				t.Fatalf("edge (%d,%d) missing from in-adjacency", u, v)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	g := mustTriangle(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph failed validation: %v", err)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := mustTriangle(t)
	edges := g.Edges()
	g2, err := FromEdges(g.N(), edges)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != g.M() {
		t.Fatalf("edge count changed: %d -> %d", g.M(), g2.M())
	}
	for _, e := range edges {
		p, pb, ok := g2.FindEdge(e.From, e.To)
		if !ok || p != e.P || pb != e.PBoost {
			t.Fatalf("edge %+v not preserved", e)
		}
	}
}

func TestTextIO(t *testing.T) {
	g := mustTriangle(t)
	var buf bytes.Buffer
	if err := g.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip changed size: %d/%d -> %d/%d", g.N(), g.M(), g2.N(), g2.M())
	}
	for _, e := range g.Edges() {
		p, pb, ok := g2.FindEdge(e.From, e.To)
		if !ok || p != e.P || pb != e.PBoost {
			t.Fatalf("edge %+v not preserved by text io", e)
		}
	}
}

func TestTextIOComments(t *testing.T) {
	input := "# a comment\n\n2 1\n# another\n0 1 0.5 0.75\n"
	g, err := ReadText(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 || g.M() != 1 {
		t.Fatalf("got %d/%d", g.N(), g.M())
	}
}

func TestTextIOErrors(t *testing.T) {
	cases := []string{
		"",                        // empty
		"2",                       // bad header
		"2 1\n0 1 0.5",            // short edge line
		"2 1\n0 1 0.9 0.5",        // pb < p
		"2 1\n0 5 0.5 0.6",        // out of range
		"2 2\n0 1 0.5 0.6",        // truncated
		"2 1\nx y 0.5 0.6",        // non-numeric
		"-1 1\n0 1 0.5 0.6",       // negative n
		"2 1\n0 1 0.5 notanumber", // bad float
	}
	for _, c := range cases {
		if _, err := ReadText(strings.NewReader(c)); err == nil {
			t.Fatalf("ReadText accepted %q", c)
		}
	}
}

func TestBinaryIO(t *testing.T) {
	g := mustTriangle(t)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		p, pb, ok := g2.FindEdge(e.From, e.To)
		if !ok || p != e.P || pb != e.PBoost {
			t.Fatalf("edge %+v not preserved by binary io", e)
		}
	}
}

func TestBinaryIOBadMagic(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOPE1234")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestWithBoostFactor(t *testing.T) {
	b := NewBuilder(2)
	b.MustAddEdge(0, 1, 0.3, 0.3)
	g := b.MustBuild()
	g2, err := g.WithBoostFactor(2)
	if err != nil {
		t.Fatal(err)
	}
	_, pb, _ := g2.FindEdge(0, 1)
	want := 1 - 0.7*0.7
	if math.Abs(pb-want) > 1e-12 {
		t.Fatalf("boosted probability %v, want %v", pb, want)
	}
	if _, err := g.WithBoostFactor(0.5); err == nil {
		t.Fatal("beta < 1 accepted")
	}
}

func TestComputeStats(t *testing.T) {
	g := mustTriangle(t)
	s := g.ComputeStats()
	if s.N != 3 || s.M != 3 {
		t.Fatalf("stats size wrong: %+v", s)
	}
	wantAvg := (0.5 + 0.3 + 0.1) / 3
	if math.Abs(s.AvgP-wantAvg) > 1e-12 {
		t.Fatalf("AvgP = %v, want %v", s.AvgP, wantAvg)
	}
	if s.MaxOutDegree != 1 || s.MaxInDegree != 1 {
		t.Fatalf("degrees wrong: %+v", s)
	}
}

func TestLargestWCC(t *testing.T) {
	// Two components: {0,1,2} (triangle) and {3,4}.
	b := NewBuilder(5)
	b.MustAddEdge(0, 1, 0.5, 0.6)
	b.MustAddEdge(1, 2, 0.5, 0.6)
	b.MustAddEdge(2, 0, 0.5, 0.6)
	b.MustAddEdge(3, 4, 0.5, 0.6)
	g := b.MustBuild()
	wcc, mapping := g.LargestWCC()
	if wcc.N() != 3 || wcc.M() != 3 {
		t.Fatalf("largest WCC %d/%d, want 3/3", wcc.N(), wcc.M())
	}
	if len(mapping) != 3 {
		t.Fatalf("mapping length %d", len(mapping))
	}
	for _, orig := range mapping {
		if orig > 2 {
			t.Fatalf("wrong component kept: mapping %v", mapping)
		}
	}
}

func TestLargestWCCDirectionsCount(t *testing.T) {
	// 0->1 and 2 isolated: WCC should be {0,1} even though 1 cannot
	// reach 0 in the directed sense.
	b := NewBuilder(3)
	b.MustAddEdge(0, 1, 0.5, 0.6)
	g := b.MustBuild()
	wcc, _ := g.LargestWCC()
	if wcc.N() != 2 {
		t.Fatalf("WCC size %d, want 2", wcc.N())
	}
}

func TestSubgraph(t *testing.T) {
	g := mustTriangle(t)
	sub, mapping := g.Subgraph([]bool{true, true, false})
	if sub.N() != 2 || sub.M() != 1 {
		t.Fatalf("subgraph %d/%d, want 2/1", sub.N(), sub.M())
	}
	if mapping[0] != 0 || mapping[1] != 1 {
		t.Fatalf("mapping %v", mapping)
	}
}

func TestIsBidirectedTree(t *testing.T) {
	// A path 0-1-2 with both directions: a bidirected tree.
	b := NewBuilder(3)
	for _, e := range [][2]int32{{0, 1}, {1, 0}, {1, 2}, {2, 1}} {
		b.MustAddEdge(e[0], e[1], 0.5, 0.6)
	}
	g := b.MustBuild()
	if !g.IsBidirectedTree() {
		t.Fatal("bidirected path not recognized as tree")
	}

	// One-directional tree edges still count (underlying undirected).
	b2 := NewBuilder(3)
	b2.MustAddEdge(0, 1, 0.5, 0.6)
	b2.MustAddEdge(1, 2, 0.5, 0.6)
	if !b2.MustBuild().IsBidirectedTree() {
		t.Fatal("directed path not recognized as tree")
	}

	// Triangle: not a tree.
	if mustTriangle(t).IsBidirectedTree() {
		t.Fatal("triangle recognized as tree")
	}

	// Disconnected: not a tree.
	b3 := NewBuilder(4)
	b3.MustAddEdge(0, 1, 0.5, 0.6)
	b3.MustAddEdge(2, 3, 0.5, 0.6)
	if b3.MustBuild().IsBidirectedTree() {
		t.Fatal("forest recognized as tree")
	}
}

// TestDerivedGraphsShareOnlyTopology pins what sharing arrays between
// snapshots relies on: deriving a graph never writes to its parent's
// arrays, and a child shares its parent's topology arrays exactly when
// it keeps the parent's edge set — a reweight-only delta or
// WithBoostFactor — and never shares an array it changed.
func TestDerivedGraphsShareOnlyTopology(t *testing.T) {
	g := randomTestGraph(t, rng.New(17), 12, 40)
	want, err := FromEdges(g.N(), g.Edges())
	if err != nil {
		t.Fatal(err)
	}
	e := g.Edges()[7]
	reweight := &EdgeDelta{Reweight: []Edge{{From: e.From, To: e.To, P: 0.01, PBoost: 0.02}}}
	structural := &EdgeDelta{Remove: []EdgeKey{{From: e.From, To: e.To}}}
	rw, _, err := g.ApplyDelta(reweight)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := g.ApplyDelta(structural)
	if err != nil {
		t.Fatal(err)
	}
	boosted, err := g.WithBoostFactor(2)
	if err != nil {
		t.Fatal(err)
	}
	graphsIdentical(t, g, want)

	// shared lists, per array, whether the child's array is the parent's.
	shared := func(c *Graph) [8]bool {
		return [8]bool{
			sameArray(c.outStart, g.outStart), sameArray(c.outTo, g.outTo),
			sameArray(c.inStart, g.inStart), sameArray(c.inFrom, g.inFrom),
			sameArray(c.outP, g.outP), sameArray(c.inP, g.inP),
			sameArray(c.outPB, g.outPB), sameArray(c.inPB, g.inPB),
		}
	}
	for _, tc := range []struct {
		name  string
		child *Graph
		want  [8]bool
	}{
		{"reweight", rw, [8]bool{true, true, true, true, false, false, false, false}},
		{"remove", st, [8]bool{}},
		{"boost factor", boosted, [8]bool{true, true, true, true, true, true, false, false}},
	} {
		if got := shared(tc.child); got != tc.want {
			t.Errorf("%s: shares (outStart outTo inStart inFrom outP inP outPB inPB) %v, want %v", tc.name, got, tc.want)
		}
	}
}

// sameArray reports whether a and b start at the same backing array
// element.
func sameArray[T any](a, b []T) bool { return unsafe.SliceData(a) == unsafe.SliceData(b) }

// Property: for random edge lists, building and re-reading via text IO
// preserves every edge.
func TestQuickTextRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 12
		b := NewBuilder(n)
		seen := map[[2]int32]bool{}
		for _, x := range raw {
			u := int32(x % n)
			v := int32((x / n) % n)
			if u == v || seen[[2]int32{u, v}] {
				continue
			}
			seen[[2]int32{u, v}] = true
			p := float64(x%97) / 100.0
			pb := p + (1-p)*0.5
			if b.AddEdge(u, v, p, pb) != nil {
				return false
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if g.WriteText(&buf) != nil {
			return false
		}
		g2, err := ReadText(&buf)
		if err != nil {
			return false
		}
		if g2.M() != g.M() {
			return false
		}
		for _, e := range g.Edges() {
			p, pb, ok := g2.FindEdge(e.From, e.To)
			if !ok || math.Abs(p-e.P) > 1e-12 || math.Abs(pb-e.PBoost) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
