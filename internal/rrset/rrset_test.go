package rrset

import (
	"context"
	"math"
	"testing"

	"github.com/kboost/kboost/internal/diffusion"
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// The defining RR-set property: n * Pr[RR ∩ S ≠ ∅] equals the expected
// influence of S.
func TestRRSetProperty(t *testing.T) {
	r := rng.New(5)
	g := testutil.RandomGraph(r, 10, 20, 0.4)
	seeds := []int32{0, 3}

	want, err := diffusion.EstimateSpread(g, seeds, nil, diffusion.Options{Sims: 200000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	const count = 200000
	hit := 0
	seedMask := make(map[int32]bool)
	for _, s := range seeds {
		seedMask[s] = true
	}
	for i := 0; i < count; i++ {
		root := int32(r.Intn(g.N()))
		set := Generate(g, root, r)
		for _, v := range set {
			if seedMask[v] {
				hit++
				break
			}
		}
	}
	got := float64(g.N()) * float64(hit) / count
	if math.Abs(got-want) > 0.05+0.02*want {
		t.Fatalf("RR estimate %v, MC influence %v", got, want)
	}
}

func TestGenerateContainsRoot(t *testing.T) {
	r := rng.New(7)
	g := testutil.RandomGraph(r, 8, 16, 0.5)
	for i := 0; i < 50; i++ {
		root := int32(r.Intn(g.N()))
		set := Generate(g, root, r)
		found := false
		for _, v := range set {
			if v == root {
				found = true
			}
		}
		if !found {
			t.Fatalf("RR set %v does not contain its root %d", set, root)
		}
	}
}

// On a star graph (hub -> leaves with p=1) the best single seed is the
// hub.
func TestSelectSeedsStar(t *testing.T) {
	const n = 21
	b := graph.NewBuilder(n)
	for leaf := int32(1); leaf < n; leaf++ {
		b.MustAddEdge(0, leaf, 1, 1)
	}
	g := b.MustBuild()
	res, err := SelectSeedsContext(context.Background(), g, 1, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 1 || res.Seeds[0] != 0 {
		t.Fatalf("seeds = %v, want [0]", res.Seeds)
	}
	if math.Abs(res.EstInfluence-float64(n)) > 2 {
		t.Fatalf("estimated influence %v, want ~%d", res.EstInfluence, n)
	}
}

func TestSelectSeedsReturnsExactlyK(t *testing.T) {
	r := rng.New(11)
	g := testutil.RandomGraph(r, 30, 40, 0.1)
	res, err := SelectSeedsContext(context.Background(), g, 5, Options{Seed: 3, MaxSamples: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 5 {
		t.Fatalf("got %d seeds, want 5", len(res.Seeds))
	}
	seen := map[int32]bool{}
	for _, s := range res.Seeds {
		if seen[s] {
			t.Fatalf("duplicate seed %d", s)
		}
		seen[s] = true
	}
}

func TestSelectSeedsValidation(t *testing.T) {
	r := rng.New(12)
	g := testutil.RandomGraph(r, 10, 15, 0.3)
	if _, err := SelectSeedsContext(context.Background(), g, 0, Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := SelectSeedsContext(context.Background(), g, 11, Options{}); err == nil {
		t.Fatal("k>n accepted")
	}
}

// MoreSeeds-style marginal selection must avoid the existing seeds and
// pick complementary nodes.
func TestSelectMarginalSeeds(t *testing.T) {
	// Two disjoint stars; seeding hub A first makes hub B the best
	// marginal addition.
	const n = 12
	b := graph.NewBuilder(n)
	for leaf := int32(1); leaf <= 5; leaf++ {
		b.MustAddEdge(0, leaf, 1, 1)
	}
	for leaf := int32(7); leaf < 12; leaf++ {
		b.MustAddEdge(6, leaf, 1, 1)
	}
	g := b.MustBuild()
	res, err := SelectMarginalSeedsContext(context.Background(), g, []int32{0}, 1, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 1 || res.Seeds[0] != 6 {
		t.Fatalf("marginal seeds = %v, want [6]", res.Seeds)
	}
}

func TestSelectMarginalSeedsBansExisting(t *testing.T) {
	r := rng.New(13)
	g := testutil.RandomGraph(r, 15, 30, 0.5)
	have := []int32{0, 1, 2}
	res, err := SelectMarginalSeedsContext(context.Background(), g, have, 4, Options{Seed: 5, MaxSamples: 20000})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Seeds {
		for _, h := range have {
			if s == h {
				t.Fatalf("existing seed %d reselected", s)
			}
		}
	}
	if len(res.Seeds) != 4 {
		t.Fatalf("got %d marginal seeds, want 4", len(res.Seeds))
	}
}

func TestPoolDeterminism(t *testing.T) {
	r := rng.New(14)
	g := testutil.RandomGraph(r, 20, 40, 0.4)
	run := func() []int32 {
		res, err := SelectSeedsContext(context.Background(), g, 3, Options{Seed: 77, Workers: 2, MaxSamples: 10000})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seeds
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic selection: %v vs %v", a, b)
		}
	}
}
