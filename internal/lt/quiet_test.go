package lt

import (
	"fmt"
	"testing"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/model/profile/profiletest"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// repairOnce applies a random delta to the pool's graph and repairs
// the pool onto the result.
func repairOnce(t *testing.T, r *rng.Source, pool *Pool) {
	t.Helper()
	g := pool.Graph()
	g2, eff, err := g.ApplyDelta(randomLTDelta(t, r, g, 20, 20, 20))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := pool.Repair(g2, eff.DirtyOut, eff.DirtyIn, 1); err != nil || !ok {
		t.Fatalf("repair: ok=%v err=%v", ok, err)
	}
}

// TestQuietSound holds lt's payload test to the soundness oracle
// (profiletest.CheckQuiet) on the oracle graphs, as built and after an
// in-place repair, and requires both outcomes so the check is not
// vacuous.
func TestQuietSound(t *testing.T) {
	graphs, err := profiletest.OracleGraphs()
	if err != nil {
		t.Fatal(err)
	}
	for i, og := range graphs {
		r := rng.New(uint64(i) + 71)
		pool, err := NewPool(og.G, og.Seeds, uint64(i)+5, 2)
		if err != nil {
			t.Fatal(err)
		}
		pool.Extend(200)
		for _, when := range []string{"built", "repaired"} {
			if when == "repaired" {
				repairOnce(t, r, pool)
			}
			quiet, pairs, err := profiletest.CheckQuiet(pool.kernel)
			if err != nil {
				t.Fatalf("%s %s: %v", og.Name, when, err)
			}
			if quiet == 0 || quiet == pairs {
				t.Fatalf("%s %s: %d of %d frontier entries quiet, want some of each", og.Name, when, quiet, pairs)
			}
		}
	}
}

// TestEstimateSkipMatchesAllPostings holds Estimate, which skips the
// profiles the payload test proves unchanged, to the all-postings
// reference bit for bit (profiletest.CheckEstimates) over 1,080 random
// boost sets, serial and sharded, on pools as built, grown in place and
// repaired.
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
		pool, err := NewPool(og.G, og.Seeds, uint64(i)+7, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, when := range []string{"built", "grown", "repaired"} {
			switch when {
			case "built":
				pool.Extend(150)
			case "grown":
				pool.Extend(400)
			case "repaired":
				repairOnce(t, r, pool)
			}
			if err := profiletest.CheckEstimates(r, pool.kernel, 120); err != nil {
				t.Fatalf("%s %s: %v", og.Name, when, err)
			}
		}
	}
}

// TestEstimateSerialAllocs pins the serial estimate at zero
// allocations once the pool's scratch is warm.
func TestEstimateSerialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch at random under -race")
	}
	r := rng.New(5)
	g := testutil.RandomGraph(r, 200, 1000, 0.5)
	pool, err := NewPool(g, testutil.RandomSeedSet(r, g.N(), 4), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool.Extend(500)
	boost := []int32{11, 42, 42, 7, 150}
	if got := testing.AllocsPerRun(100, func() {
		if _, _, err := pool.Estimate(boost); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("Estimate makes %v allocations, want 0", got)
	}
}

// TestMemoryEstimateCountsCapacity checks MemoryEstimate against the
// capacities of everything the kernel retains (testutil.RetainedBytes)
// through growth, queries and two repairs, the second of which reuses
// the index scratch the first one kept, and then a repair that touches
// no profile.
func TestMemoryEstimateCountsCapacity(t *testing.T) {
	r := rng.New(9)
	g := testutil.RandomGraph(r, 120, 600, 0.4)
	pool, err := NewPool(g, []int32{0, 5, 9}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if got, want := pool.MemoryEstimate(), testutil.RetainedBytes(pool.kernel, (*graph.Graph)(nil)); got != want {
			t.Fatalf("%s: MemoryEstimate = %d, summed capacities = %d", when, got, want)
		}
	}
	check("new")
	for _, target := range []int{500, 1500} {
		pool.Extend(target)
		check(fmt.Sprintf("extended to %d", target))
	}
	if _, _, err := pool.Estimate([]int32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pool.GreedyBoost(3, 0); err != nil {
		t.Fatal(err)
	}
	check("queried")
	for i := 1; i <= 2; i++ {
		repairOnce(t, r, pool)
		check(fmt.Sprintf("repair %d", i))
	}

	// A delta on a seed's in-edges changes no profile: the repair keeps
	// every array, so the estimate must not move.
	before := pool.MemoryEstimate()
	g = pool.Graph()
	d := &graph.EdgeDelta{}
	for j, u := range g.InFrom(0) {
		d.Reweight = append(d.Reweight, graph.Edge{From: u, To: 0, P: g.InP(0)[j] / 2, PBoost: g.InPBoost(0)[j]})
	}
	g2, eff, err := g.ApplyDelta(d)
	if err != nil || len(d.Reweight) == 0 {
		t.Fatalf("no delta on the seed's in-edges: %d reweights, err %v", len(d.Reweight), err)
	}
	if touched, ok, err := pool.Repair(g2, eff.DirtyOut, eff.DirtyIn, 1); err != nil || !ok || touched != 0 {
		t.Fatalf("no-touch repair: touched %d ok=%v err=%v", touched, ok, err)
	}
	check("no-touch repair")
	if got := pool.MemoryEstimate(); got != before {
		t.Fatalf("no-touch repair moved MemoryEstimate %d -> %d", before, got)
	}
}
