package shard_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/kboost/kboost/internal/diffusion"
	"github.com/kboost/kboost/internal/lt"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/rrset"
	"github.com/kboost/kboost/internal/testutil"
)

// goldenInvariant pins the sha256 digest of a transcript of every
// estimator that fans replicates out over shard.Each: diffusion's and
// lt's Monte-Carlo means, lt's Monte-Carlo greedy, and an rrset pool
// with the seed selections built on it. Each draws replicate i from
// rng.StreamSeed(seed, i), so the chunks only decide which worker
// fills which slot, and the one digest must come out at every worker
// count. The counts include 8 and 11, where the remainder-first split
// (chunk w holds n/workers items, plus one when w < n%workers) and a
// ⌈n/workers⌉ split differ. The digest was recorded once and must
// never be edited.
const goldenInvariant = "29413d11339964de569eaf6dd87c6dbe1d51f7d70bae38132181982ef5904bb2"

// invariantTranscript runs every fanned-out estimator at one worker
// count and returns its text transcript.
func invariantTranscript(t *testing.T, workers int) string {
	t.Helper()
	ctx := context.Background()
	g := testutil.EdgeCaseGraph(rng.New(2024), 60, 240, 0.3)
	seeds := []int32{0, 9, 31}
	boost := []int32{2, 5, 11, 17, 23}
	var b strings.Builder
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	ic := diffusion.Options{Sims: 300, Seed: 41, Workers: workers}
	spread, err := diffusion.EstimateSpread(g, seeds, boost, ic)
	check(err)
	plain, err := diffusion.EstimateSpread(g, seeds, nil, ic)
	check(err)
	delta, err := diffusion.EstimateBoost(g, seeds, boost, ic)
	check(err)
	fmt.Fprintf(&b, "ic spread %v plain %v boost %v\n", spread, plain, delta)
	for _, target := range []diffusion.BoostTarget{diffusion.BoostReceivers, diffusion.BoostSenders} {
		spread, err := diffusion.EstimateSpreadTarget(g, seeds, boost, target, ic)
		check(err)
		delta, err := diffusion.EstimateBoostTarget(g, seeds, boost, target, ic)
		check(err)
		fmt.Fprintf(&b, "ic target %d spread %v boost %v\n", target, spread, delta)
	}

	opt := lt.Options{Sims: 300, Seed: 43, Workers: workers}
	spread, err = lt.EstimateSpread(g, seeds, boost, opt)
	check(err)
	delta, err = lt.EstimateBoost(g, seeds, boost, opt)
	check(err)
	fmt.Fprintf(&b, "lt spread %v boost %v\n", spread, delta)
	picks, val, err := lt.GreedyBoost(g, seeds, 2, 6, opt)
	check(err)
	fmt.Fprintf(&b, "lt greedy %v %v\n", picks, val)

	// A pool grown to 300 and then to 700 sets holds the same sets as
	// one grown to 700 at once: set j's stream depends on j alone.
	pool := rrset.NewPool(g, 13, workers)
	pool.Ban(seeds)
	for _, target := range []int{300, 700} {
		check(pool.ExtendContext(ctx, target))
		set, cov := pool.SelectAndCover(4)
		fmt.Fprintf(&b, "rrset size %d select %v %d\n", pool.Size(), set, cov)
	}
	once := rrset.NewPool(g, 13, workers)
	check(once.ExtendContext(ctx, 700))
	differ := -1
	for j := range pool.Size() {
		fmt.Fprintf(&b, "rrset set %d %v\n", j, pool.Set(j))
		if differ < 0 && !slices.Equal(pool.Set(j), once.Set(j)) {
			differ = j
		}
	}
	if differ >= 0 {
		t.Errorf("workers %d: set %d is %v grown 300 then 700, %v grown 700 at once",
			workers, differ, pool.Set(differ), once.Set(differ))
	}
	for _, adaptive := range []bool{false, true} {
		sel := rrset.Options{Seed: 19, Workers: workers, MaxSamples: 3000, Adaptive: adaptive}
		res, err := rrset.SelectSeedsContext(ctx, g, 4, sel)
		check(err)
		fmt.Fprintf(&b, "rrset seeds adaptive %v %+v\n", adaptive, res)
	}
	res, err := rrset.SelectMarginalSeedsContext(ctx, g, seeds, 3,
		rrset.Options{Seed: 19, Workers: workers, MaxSamples: 3000})
	check(err)
	fmt.Fprintf(&b, "rrset marginal %+v\n", res)
	return b.String()
}

func TestInvarianceGoldenDigest(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 8, 11} {
		sum := sha256.Sum256([]byte(invariantTranscript(t, workers)))
		if got := fmt.Sprintf("%x", sum); got != goldenInvariant {
			t.Errorf("workers %d: digest %s, want %s", workers, got, goldenInvariant)
		}
	}
}
