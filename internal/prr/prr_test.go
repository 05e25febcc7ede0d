package prr

import (
	"context"
	"math"
	"sort"
	"testing"

	"github.com/kboost/kboost/internal/exact"
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// fig2PRR builds (by hand) the compressed PRR-graph of the paper's
// Figure 3b, derived from the Figure 2 example: super-seed {v4,v7},
// nodes v1..v5 and root r.
//
// Local ids: 0=super-seed, 1=r, 2=v1, 3=v2, 4=v3, 5=v5.
// Original ids (arbitrary but distinct): r=10, v1=1, v2=2, v3=3, v5=5.
//
// Edges (from Figure 3b):
//
//	super-seed -> v1 (boost)   [v4 -> v1 was live-upon-boost]
//	super-seed -> v3 (boost)   [v7 -> v3]
//	super-seed -> v5 (boost)   [v7 -> v5]
//	v1 -> r (live), v3 -> r (live), v2 -> r (live)
//	v5 -> v2 (boost), v2 -> v1 (boost), v1 -> v5 (boost)
//
// Ground truth from the paper: f(∅)=0, f({v1})=1, f({v3})=1,
// f({v2,v5})=1, C_R = {v1, v3}.
func fig2PRR() *PRR {
	type e struct {
		from, to int32
		boost    uint8
	}
	edges := []e{
		{0, 2, 1}, // ss -> v1 boost
		{0, 4, 1}, // ss -> v3 boost
		{0, 5, 1}, // ss -> v5 boost
		{2, 1, 0}, // v1 -> r live
		{4, 1, 0}, // v3 -> r live
		{3, 1, 0}, // v2 -> r live
		{5, 3, 1}, // v5 -> v2 boost
		{3, 2, 1}, // v2 -> v1 boost
		{2, 5, 1}, // v1 -> v5 boost
	}
	n := int32(6)
	R := &PRR{
		root: 1,
		orig: []int32{-1, 10, 1, 2, 3, 5},
	}
	R.outStart = make([]int32, n+1)
	R.inStart = make([]int32, n+1)
	for _, ed := range edges {
		R.outStart[ed.from+1]++
		R.inStart[ed.to+1]++
	}
	for i := int32(0); i < n; i++ {
		R.outStart[i+1] += R.outStart[i]
		R.inStart[i+1] += R.inStart[i]
	}
	R.outTo = make([]int32, len(edges))
	R.outBoost = make([]uint8, len(edges))
	R.inFrom = make([]int32, len(edges))
	R.inBoost = make([]uint8, len(edges))
	outPos := append([]int32(nil), R.outStart[:n]...)
	inPos := append([]int32(nil), R.inStart[:n]...)
	for _, ed := range edges {
		R.outTo[outPos[ed.from]] = ed.to
		R.outBoost[outPos[ed.from]] = ed.boost
		outPos[ed.from]++
		R.inFrom[inPos[ed.to]] = ed.from
		R.inBoost[inPos[ed.to]] = ed.boost
		inPos[ed.to]++
	}
	return R
}

func maskOf(n int, nodes ...int32) []bool {
	m := make([]bool, n)
	for _, v := range nodes {
		m[v] = true
	}
	return m
}

func TestFig2Eval(t *testing.T) {
	R := fig2PRR()
	if err := R.validate(); err != nil {
		t.Fatal(err)
	}
	s := NewScratch()
	const n = 16
	cases := []struct {
		boost []int32
		want  bool
	}{
		{nil, false},
		{[]int32{1}, true},        // boost v1
		{[]int32{3}, true},        // boost v3
		{[]int32{2, 5}, true},     // boost {v2,v5}
		{[]int32{2}, false},       // v2 alone: ss->..->v2 needs v5 or v1 path
		{[]int32{5}, false},       // v5 alone
		{[]int32{10}, false},      // boosting the root alone: no boost in-edge to r
		{[]int32{1, 2, 3}, true},  // superset stays covered
		{[]int32{5, 2, 10}, true}, // {v5,v2} plus root
	}
	for _, c := range cases {
		if got := R.Eval(maskOf(n, c.boost...), s); got != c.want {
			t.Errorf("f_R(%v) = %v, want %v", c.boost, got, c.want)
		}
	}
}

func TestFig2Critical(t *testing.T) {
	R := fig2PRR()
	s := NewScratch()
	covered, cands := R.Candidates(make([]bool, 16), s)
	if covered {
		t.Fatal("boostable graph reported covered at B=∅")
	}
	got := append([]int32(nil), cands...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := []int32{1, 3} // v1 and v3
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("C_R = %v, want %v", got, want)
	}
}

func TestFig2CandidatesAfterBoost(t *testing.T) {
	R := fig2PRR()
	s := NewScratch()
	// With v5 boosted, v2 becomes a candidate (path ss->v5->v2->r), and
	// v1, v3 remain candidates.
	covered, cands := R.Candidates(maskOf(16, 5), s)
	if covered {
		t.Fatal("covered with only v5 boosted")
	}
	got := append([]int32(nil), cands...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := []int32{1, 2, 3}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("candidates = %v, want %v", got, want)
	}
}

// Candidates must agree with brute-force single-node evaluation on
// randomly generated PRR-graphs.
func TestCandidatesMatchBruteForce(t *testing.T) {
	r := rng.New(2024)
	for trial := 0; trial < 40; trial++ {
		g := testutil.RandomGraph(r, 12, 24, 0.5)
		seeds := testutil.RandomSeedSet(r, g.N(), 2)
		gen, err := NewGenerator(g, seeds, 3, ModeFull)
		if err != nil {
			t.Fatal(err)
		}
		s := NewScratch()
		for i := 0; i < 30; i++ {
			res := gen.Generate(r)
			if res.Kind != KindBoostable {
				continue
			}
			R := res.Graph
			// Random current boost set B.
			var b []int32
			for _, v := range R.Nodes() {
				if r.Bernoulli(0.3) {
					b = append(b, v)
				}
			}
			mask := maskOf(g.N(), b...)
			covered, cands := R.Candidates(mask, s)
			candCopy := append([]int32(nil), cands...)
			if covered != R.Eval(mask, s) {
				t.Fatalf("Candidates covered=%v disagrees with Eval", covered)
			}
			if covered {
				continue
			}
			isCand := make(map[int32]bool, len(candCopy))
			for _, v := range candCopy {
				isCand[v] = true
			}
			for _, v := range R.Nodes() {
				if mask[v] {
					continue
				}
				mask[v] = true
				evalWith := R.Eval(mask, s)
				mask[v] = false
				if evalWith != isCand[v] {
					t.Fatalf("node %d: Eval(B∪{v})=%v but candidate=%v", v, evalWith, isCand[v])
				}
			}
		}
	}
}

// The PRR estimator must be unbiased: n·E[f_R(B)] = Δ_S(B) (Lemma 1),
// verified against exact enumeration on small graphs.
func TestEstimatorUnbiased(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 4; trial++ {
		g := testutil.RandomGraph(r, 8, 12, 0.6)
		seeds := testutil.RandomSeedSet(r, g.N(), 2)
		nonSeeds := testutil.NonSeeds(g.N(), seeds)
		if len(nonSeeds) < 2 {
			continue
		}
		boost := nonSeeds[:2]

		want, err := exact.Boost(g, seeds, boost)
		if err != nil {
			t.Fatal(err)
		}

		pool, err := NewPool(g, seeds, 2, ModeFull, uint64(trial)+1, 2)
		if err != nil {
			t.Fatal(err)
		}
		extend(t, pool, 200000)
		got, err := pool.EstimateDelta(boost)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 0.05+0.05*want {
			t.Fatalf("trial %d: Δ̂=%v, exact Δ=%v", trial, got, want)
		}
	}
}

// μ̂(B) ≤ Δ̂(B) must hold per possible world: I(B∩C_R≠∅) ≤ f_R(B)
// (Lemma 2's pointwise statement).
func TestMuLowerBoundsDeltaPointwise(t *testing.T) {
	r := rng.New(88)
	g := testutil.RandomGraph(r, 12, 24, 0.5)
	seeds := testutil.RandomSeedSet(r, g.N(), 2)
	gen, err := NewGenerator(g, seeds, 3, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch()
	checked := 0
	for i := 0; i < 400 && checked < 100; i++ {
		res := gen.Generate(r)
		if res.Kind != KindBoostable {
			continue
		}
		checked++
		R := res.Graph
		var b []int32
		for _, v := range R.Nodes() {
			if r.Bernoulli(0.4) {
				b = append(b, v)
			}
		}
		mask := maskOf(g.N(), b...)
		fLower := false
		for _, c := range R.Critical() {
			if mask[c] {
				fLower = true
				break
			}
		}
		if fLower && !R.Eval(mask, s) {
			t.Fatalf("f−_R(B)=1 but f_R(B)=0 for B=%v", b)
		}
	}
	if checked == 0 {
		t.Skip("no boostable PRR-graphs generated")
	}
}

// The μ estimate itself must match n·E[f−_R(B)] computed from critical
// sets, and must lower-bound the exact Δ_S(B).
func TestMuEstimateLowerBoundsExact(t *testing.T) {
	r := rng.New(99)
	g := testutil.RandomGraph(r, 8, 12, 0.6)
	seeds := []int32{0}
	nonSeeds := testutil.NonSeeds(g.N(), seeds)
	boost := nonSeeds[:3]

	want, err := exact.Boost(g, seeds, boost)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(g, seeds, 3, ModeFull, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	extend(t, pool, 150000)
	mu := pool.EstimateMu(boost)
	if mu > want+0.05+0.05*want {
		t.Fatalf("μ̂=%v exceeds exact Δ=%v", mu, want)
	}
}

// LB mode and full mode must agree on the μ estimate (they generate
// with different pruning budgets but critical sets are identical in
// distribution).
func TestLBModeMatchesFullModeMu(t *testing.T) {
	r := rng.New(111)
	g := testutil.RandomGraph(r, 10, 20, 0.5)
	seeds := []int32{0, 1}
	boost := []int32{4, 5}

	full, err := NewPool(g, seeds, 3, ModeFull, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	extend(t, full, 120000)
	lb, err := NewPool(g, seeds, 3, ModeLB, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	extend(t, lb, 120000)

	muFull := full.EstimateMu(boost)
	muLB := lb.EstimateMu(boost)
	if math.Abs(muFull-muLB) > 0.08+0.08*muFull {
		t.Fatalf("μ̂ full=%v vs LB=%v", muFull, muLB)
	}
}

func TestGeneratorRootSeed(t *testing.T) {
	g, seeds := testutil.Fig1()
	gen, err := NewGenerator(g, seeds, 1, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	res := gen.GenerateFrom(0, r) // root is the seed
	if res.Kind != KindActivated {
		t.Fatalf("seed root gave %v, want activated", res.Kind)
	}
}

func TestGeneratorKinds(t *testing.T) {
	// Graph: s -> a (p=1), s -> b (p=0, p'=0), c isolated.
	b := graph.NewBuilder(4)
	b.MustAddEdge(0, 1, 1, 1)
	b.MustAddEdge(0, 2, 0, 0)
	g := b.MustBuild()
	gen, err := NewGenerator(g, []int32{0}, 1, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	if res := gen.GenerateFrom(1, r); res.Kind != KindActivated {
		t.Fatalf("root a: %v, want activated", res.Kind)
	}
	if res := gen.GenerateFrom(2, r); res.Kind != KindHopeless {
		t.Fatalf("root b: %v, want hopeless", res.Kind)
	}
	if res := gen.GenerateFrom(3, r); res.Kind != KindHopeless {
		t.Fatalf("root c: %v, want hopeless", res.Kind)
	}
}

func TestGeneratorBoostable(t *testing.T) {
	// s -> v with p=0, p'=1: rooting at v always yields a boostable
	// graph with critical node v.
	b := graph.NewBuilder(2)
	b.MustAddEdge(0, 1, 0, 1)
	g := b.MustBuild()
	gen, err := NewGenerator(g, []int32{0}, 1, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	res := gen.GenerateFrom(1, r)
	if res.Kind != KindBoostable {
		t.Fatalf("kind %v, want boostable", res.Kind)
	}
	if len(res.Critical) != 1 || res.Critical[0] != 1 {
		t.Fatalf("critical = %v, want [1]", res.Critical)
	}
	if res.Graph.NumNodes() != 2 || res.Graph.NumEdges() != 1 {
		t.Fatalf("compressed size %d/%d, want 2/1", res.Graph.NumNodes(), res.Graph.NumEdges())
	}
}

func TestGeneratorValidation(t *testing.T) {
	g, seeds := testutil.Fig1()
	if _, err := NewGenerator(g, seeds, 0, ModeFull); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewGenerator(g, nil, 1, ModeFull); err == nil {
		t.Fatal("empty seeds accepted")
	}
	if _, err := NewGenerator(g, []int32{77}, 1, ModeFull); err == nil {
		t.Fatal("invalid seed accepted")
	}
}

// Compression must preserve f_R: estimates over compressed graphs have
// to match exact Δ for many different boost sets, including sets larger
// than 1 that exercise multi-hop boost paths.
func TestCompressionPreservesEstimates(t *testing.T) {
	r := rng.New(500)
	g := testutil.RandomGraph(r, 7, 11, 0.7)
	seeds := []int32{0}
	nonSeeds := testutil.NonSeeds(g.N(), seeds)
	if len(nonSeeds) < 3 {
		t.Skip("not enough non-seeds")
	}
	k := 3
	pool, err := NewPool(g, seeds, k, ModeFull, 13, 2)
	if err != nil {
		t.Fatal(err)
	}
	extend(t, pool, 200000)
	// Try every subset of size <= k from the first few non-seeds.
	sets := [][]int32{
		{nonSeeds[0]},
		{nonSeeds[1]},
		{nonSeeds[0], nonSeeds[1]},
		{nonSeeds[0], nonSeeds[2]},
		{nonSeeds[0], nonSeeds[1], nonSeeds[2]},
	}
	for _, b := range sets {
		want, err := exact.Boost(g, seeds, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pool.EstimateDelta(b)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 0.05+0.08*want {
			t.Fatalf("B=%v: Δ̂=%v, exact=%v", b, got, want)
		}
	}
}

func TestPoolStats(t *testing.T) {
	r := rng.New(12)
	g := testutil.RandomGraph(r, 20, 50, 0.4)
	seeds := []int32{0, 1}
	pool, err := NewPool(g, seeds, 2, ModeFull, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	extend(t, pool, 2000)
	st := pool.Stats()
	if st.Total != 2000 {
		t.Fatalf("total %d, want 2000", st.Total)
	}
	if st.Activated+st.Hopeless+st.Boostable != st.Total {
		t.Fatalf("kind counts %d+%d+%d != %d", st.Activated, st.Hopeless, st.Boostable, st.Total)
	}
	if st.Boostable > 0 && st.CompressionRatio < 1 {
		t.Fatalf("compression ratio %v < 1", st.CompressionRatio)
	}
}

func TestSelectDeltaImprovesCoverage(t *testing.T) {
	r := rng.New(21)
	g := testutil.RandomGraph(r, 20, 60, 0.4)
	seeds := []int32{0}
	pool, err := NewPool(g, seeds, 3, ModeFull, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	extend(t, pool, 5000)
	chosen, covered, err := pool.selectDelta(context.Background(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) > 3 {
		t.Fatalf("chose %d nodes", len(chosen))
	}
	for _, v := range chosen {
		if v == 0 {
			t.Fatal("seed selected as boost node")
		}
	}
	// The greedy Δ̂ selection must cover at least as much as any single
	// node.
	if len(chosen) > 0 {
		single, err2 := pool.EstimateDelta(chosen[:1])
		if err2 != nil {
			t.Fatal(err2)
		}
		full, err2 := pool.EstimateDelta(chosen)
		if err2 != nil {
			t.Fatal(err2)
		}
		if full+1e-9 < single {
			t.Fatalf("Δ̂ of full set %v below its own first pick %v", full, single)
		}
		est := float64(g.N()) * float64(covered) / float64(pool.Size())
		if math.Abs(est-full) > 1e-9 {
			t.Fatalf("greedy coverage estimate %v != EstimateDelta %v", est, full)
		}
	}
}

func TestSelectDeltaRequiresFullMode(t *testing.T) {
	r := rng.New(22)
	g := testutil.RandomGraph(r, 10, 20, 0.4)
	pool, err := NewPool(g, []int32{0}, 2, ModeLB, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	extend(t, pool, 100)
	if _, _, err := pool.selectDelta(context.Background(), 2, nil); err == nil {
		t.Fatal("selectDelta worked in LB mode")
	}
	if _, err := pool.EstimateDelta([]int32{1}); err == nil {
		t.Fatal("EstimateDelta worked in LB mode")
	}
}

func TestPoolDeterminism(t *testing.T) {
	r := rng.New(23)
	g := testutil.RandomGraph(r, 15, 40, 0.5)
	seeds := []int32{0}
	run := func() ([]int32, int) {
		pool, err := NewPool(g, seeds, 2, ModeFull, 42, 3)
		if err != nil {
			t.Fatal(err)
		}
		extend(t, pool, 3000)
		return pool.SelectDelta2(t)
	}
	a, ca := run()
	b, cb := run()
	if ca != cb || len(a) != len(b) {
		t.Fatalf("nondeterministic pool: %v/%d vs %v/%d", a, ca, b, cb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic selection: %v vs %v", a, b)
		}
	}
}

// SelectDelta2 is a tiny test helper binding errors to t.
func (p *Pool) SelectDelta2(t *testing.T) ([]int32, int) {
	t.Helper()
	chosen, covered, err := p.selectDelta(context.Background(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return chosen, covered
}

// extend grows p to target samples, failing the test on error.
func extend(tb testing.TB, p *Pool, target int) {
	tb.Helper()
	if err := p.ExtendContext(context.Background(), target); err != nil {
		tb.Fatal(err)
	}
}
