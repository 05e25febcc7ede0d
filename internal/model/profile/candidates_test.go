package profile

import (
	"slices"
	"sort"
	"testing"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rng"
)

// candidatesFullSort is the reference Candidates: every non-seed node's
// uplift, a full sort by (uplift desc, id asc), cut to the cap.
func candidatesFullSort(g *graph.Graph, seedMask []bool, k, candCap int) []int32 {
	candCap = CandidateCap(k, candCap)
	type nw struct {
		v int32
		w float64
	}
	pool := make([]nw, 0, g.N())
	for v := int32(0); int(v) < g.N(); v++ {
		if seedMask[v] {
			continue
		}
		var wsum float64
		p := g.InP(v)
		pb := g.InPBoost(v)
		for i := range p {
			wsum += pb[i] - p[i]
		}
		pool = append(pool, nw{v, wsum})
	}
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].w != pool[j].w {
			return pool[i].w > pool[j].w
		}
		return pool[i].v < pool[j].v
	})
	if len(pool) > candCap {
		pool = pool[:candCap]
	}
	out := make([]int32, len(pool))
	for i, c := range pool {
		out[i] = c.v
	}
	return out
}

// quantizedGraph builds a random graph on n nodes whose probabilities
// are multiples of 1/4, so many nodes share an uplift, and in which
// about a third of the nodes receive no edges at all.
func quantizedGraph(t *testing.T, r *rng.Source, n int) *graph.Graph {
	t.Helper()
	var targets []int32
	for v := int32(0); int(v) < n; v++ {
		if r.Intn(3) != 0 {
			targets = append(targets, v)
		}
	}
	b := graph.NewBuilder(n)
	seen := map[[2]int32]bool{}
	for e := r.Intn(2*n + 1); e > 0 && len(targets) > 0; e-- {
		u, v := int32(r.Intn(n)), targets[r.Intn(len(targets))]
		if u == v || seen[[2]int32{u, v}] {
			continue
		}
		seen[[2]int32{u, v}] = true
		q := r.Intn(5)
		b.MustAddEdge(u, v, float64(q)/4, float64(q+r.Intn(5-q))/4)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCandidatesMatchesFullSort pins the bounded-heap Candidates to the
// full-sort reference, slice for slice, over tie-heavy random graphs,
// random seed masks (all-seeds included) and caps from 0 to 3n.
func TestCandidatesMatchesFullSort(t *testing.T) {
	r := rng.New(18)
	checked := 0
	for trial := 0; trial < 600; trial++ {
		n := 1 + r.Intn(60)
		g := quantizedGraph(t, r, n)
		seedMask := make([]bool, n)
		switch trial % 4 {
		case 0: // no seeds
		case 1:
			for i := range seedMask {
				seedMask[i] = true
			}
		default:
			for i := range seedMask {
				seedMask[i] = r.Intn(4) == 0
			}
		}
		k := 1 + r.Intn(n+2)
		for _, candCap := range []int{0, k, 4 * k, n - 1, n, 3 * n} {
			got := Candidates(g, seedMask, k, candCap)
			want := candidatesFullSort(g, seedMask, k, candCap)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d (n=%d k=%d candCap=%d): Candidates %v, full sort %v",
					trial, n, k, candCap, got, want)
			}
			checked++
		}
	}
	t.Logf("%d cases matched", checked)
}
