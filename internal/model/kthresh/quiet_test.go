package kthresh

import (
	"context"
	"fmt"
	"testing"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/model/profile/profiletest"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// resampleOnce reweights and removes a few random edges of the pool's
// graph and moves the pool onto the result, re-running every profile
// and rebuilding the frontier index (k-threshold pools have no Repair;
// Resample is its layout half).
func resampleOnce(t *testing.T, r *rng.Source, m *Model, pool *Pool) {
	t.Helper()
	g := pool.Graph()
	edges := g.Edges()
	d := &graph.EdgeDelta{}
	for i, j := range r.Perm(len(edges))[:min(40, len(edges))] {
		e := edges[j]
		if i%2 == 0 {
			d.Remove = append(d.Remove, graph.EdgeKey{From: e.From, To: e.To})
			continue
		}
		p := r.Float64() * 0.5
		e.P, e.PBoost = p, 1-(1-p)*(1-p)
		d.Reweight = append(d.Reweight, e)
	}
	g2, _, err := g.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]bool, pool.NumProfiles())
	for i := range all {
		all[i] = true
	}
	pool.Resample(g2, m.cascade(g2)(pool.Seeds()), all)
}

// TestQuietSound holds k-threshold's payload test to the soundness
// oracle (profiletest.CheckQuiet) on the oracle graphs at every
// threshold, as built and after a resample onto a patched graph, and
// requires both outcomes above τ = 1 (where every frontier node has
// the one exposure it needs) so the check is not vacuous.
func TestQuietSound(t *testing.T) {
	graphs, err := profiletest.OracleGraphs()
	if err != nil {
		t.Fatal(err)
	}
	var quietSum, pairsSum int
	for i, og := range graphs {
		for _, tau := range thresholds {
			r := rng.New(uint64(i*10+tau) + 71)
			m := New(tau)
			pool, err := m.NewPool(og.G, og.Seeds, uint64(i)+5, 2)
			if err != nil {
				t.Fatal(err)
			}
			extend(t, pool, 200)
			for _, when := range []string{"built", "resampled"} {
				if when == "resampled" {
					resampleOnce(t, r, m, pool)
				}
				quiet, pairs, err := profiletest.CheckQuiet(pool.Pool)
				if err != nil {
					t.Fatalf("%s τ=%d %s: %v", og.Name, tau, when, err)
				}
				if tau > 1 {
					quietSum, pairsSum = quietSum+quiet, pairsSum+pairs
				}
			}
		}
	}
	if quietSum == 0 || quietSum == pairsSum {
		t.Fatalf("%d of %d frontier entries quiet above τ = 1, want some of each", quietSum, pairsSum)
	}
}

// TestEstimateSkipMatchesAllPostings holds Estimate, which skips the
// profiles the payload test proves unchanged, to the all-postings
// reference bit for bit (profiletest.CheckEstimates) over 1,080 random
// boost sets, serial and sharded, on pools as built, grown in place and
// resampled onto a patched graph.
func TestEstimateSkipMatchesAllPostings(t *testing.T) {
	graphs, err := profiletest.OracleGraphs()
	if err != nil {
		t.Fatal(err)
	}
	for i, og := range graphs {
		if og.Name == "flickr" {
			continue
		}
		r := rng.New(uint64(i) + 91)
		m := New(thresholds[1+i%2])
		pool, err := m.NewPool(og.G, og.Seeds, uint64(i)+7, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, when := range []string{"built", "grown", "resampled"} {
			switch when {
			case "built":
				extend(t, pool, 150)
			case "grown":
				extend(t, pool, 400)
			case "resampled":
				resampleOnce(t, r, m, pool)
			}
			if err := profiletest.CheckEstimates(r, pool.Pool, 120); err != nil {
				t.Fatalf("%s τ=%d %s: %v", og.Name, m.Threshold(), when, err)
			}
		}
	}
}

// TestMemoryEstimateCountsCapacity checks MemoryEstimate against the
// capacities of everything the pool retains (testutil.RetainedBytes)
// through growth and queries.
func TestMemoryEstimateCountsCapacity(t *testing.T) {
	r := rng.New(9)
	g := testutil.RandomGraph(r, 120, 600, 0.4)
	m := New(2)
	pool, err := m.NewPool(g, []int32{0, 5, 9}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if got, want := pool.MemoryEstimate(), testutil.RetainedBytes(pool.Pool, (*graph.Graph)(nil)); got != want {
			t.Fatalf("%s: MemoryEstimate = %d, summed capacities = %d", when, got, want)
		}
	}
	check("new")
	for _, target := range []int{500, 1500} {
		extend(t, pool, target)
		check(fmt.Sprintf("extended to %d", target))
	}
	if _, _, err := pool.Estimate([]int32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pool.GreedyBoostContext(context.Background(), 3, 0); err != nil {
		t.Fatal(err)
	}
	check("queried")
	resampleOnce(t, r, m, pool)
	check("resampled")
}
