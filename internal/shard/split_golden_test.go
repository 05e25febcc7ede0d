package shard_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"github.com/kboost/kboost/internal/diffusion"
	"github.com/kboost/kboost/internal/lt"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/rrset"
	"github.com/kboost/kboost/internal/testutil"
)

// goldenSplit pins sha256 digests of the split-stream estimators —
// diffusion's and lt's Monte-Carlo means and an rrset pool — whose
// answers depend on how the work is cut into chunks: worker w draws
// from the w-th split of one root stream, so moving one item between
// chunks moves its draws to another stream. The worker counts are ones
// where the remainder-first split (chunk w holds n/workers items, plus
// one when w < n%workers) and a ⌈n/workers⌉ split differ: 300 items on
// 8 workers are 4×38 + 4×37 under the first and 7×38 + 34 under the
// second, and on 11 workers 3×28 + 8×27 against 10×28 + 20. The
// digests were recorded once and must never be edited.
var goldenSplit = map[int]string{
	8:  "3ceda7a0a026cd558e8a02fa4db8d8ba40161f711eedbfc8faae0dcff84dcdbc",
	11: "af54a92fcf241dcb787dc2f0cd816d07ebf021a839104e74c70dfb21a481a7ce",
}

// splitTranscript runs every split-stream estimator at one worker
// count and returns its text transcript.
func splitTranscript(t *testing.T, workers int) string {
	t.Helper()
	g := testutil.EdgeCaseGraph(rng.New(2024), 60, 240, 0.3)
	seeds := []int32{0, 9, 31}
	boost := []int32{2, 5, 11, 17, 23}
	var b strings.Builder
	check := func(err error) {
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
		v, err := diffusion.EstimateBoostTarget(g, seeds, boost, target, ic)
		check(err)
		fmt.Fprintf(&b, "ic target %d boost %v\n", target, v)
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

	pool := rrset.NewPool(g, 13, workers)
	pool.Ban(seeds)
	for _, target := range []int{300, 701} {
		check(pool.ExtendContext(context.Background(), target))
		fmt.Fprintf(&b, "rrset size %d coverage", pool.Size())
		for v := int32(0); int(v) < g.N(); v++ {
			fmt.Fprintf(&b, " %d", pool.CoverageOf([]int32{v}))
		}
		set, cov := pool.SelectAndCover(4)
		fmt.Fprintf(&b, "\nrrset select %v %d\n", set, cov)
	}
	return b.String()
}

func TestSplitGoldenDigests(t *testing.T) {
	for _, workers := range []int{8, 11} {
		sum := sha256.Sum256([]byte(splitTranscript(t, workers)))
		if got := fmt.Sprintf("%x", sum); got != goldenSplit[workers] {
			t.Errorf("workers %d: digest %s, want %s", workers, got, goldenSplit[workers])
		}
	}
}
