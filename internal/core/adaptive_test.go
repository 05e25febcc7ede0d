package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"github.com/kboost/kboost/internal/faults"
	"github.com/kboost/kboost/internal/prr"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/rrset"
	"github.com/kboost/kboost/internal/testutil"
)

// Adaptive sampling must make the same qualitative choice as IMM on the
// Figure 1 example (boost v0) with far fewer samples on easy instances.
func TestPRRBoostAdaptiveFig1(t *testing.T) {
	g, seeds := testutil.Fig1()
	res, err := PRRBoost(g, seeds, Options{K: 1, Seed: 3, Adaptive: true, MaxSamples: 200000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BoostSet) != 1 || res.BoostSet[0] != 1 {
		t.Fatalf("adaptive boost set %v, want [1]", res.BoostSet)
	}
	if math.Abs(res.EstBoost-0.22) > 0.05 {
		t.Fatalf("adaptive boost estimate %v, want ~0.22", res.EstBoost)
	}
}

func TestPRRBoostLBAdaptive(t *testing.T) {
	r := rng.New(5)
	g := testutil.RandomGraph(r, 25, 70, 0.4)
	seeds := []int32{0, 1}
	res, err := PRRBoostLB(g, seeds, Options{K: 3, Seed: 3, Adaptive: true, MaxSamples: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BoostSet) != 3 {
		t.Fatalf("|B| = %d", len(res.BoostSet))
	}
	for _, v := range res.BoostSet {
		if v == 0 || v == 1 {
			t.Fatal("adaptive LB picked a seed")
		}
	}
}

// The two controllers must agree on solution quality; sample counts
// differ per instance (IMM wins when OPT's lower bound is large,
// adaptive wins when IMM's union-bound sizing is pessimistic), so only
// quality is asserted.
func TestAdaptiveMatchesIMMQuality(t *testing.T) {
	r := rng.New(6)
	g := testutil.RandomGraph(r, 40, 120, 0.4)
	seeds := []int32{0}
	immRes, err := PRRBoost(g, seeds, Options{K: 3, Seed: 7, MaxSamples: 300000})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := PRRBoost(g, seeds, Options{K: 3, Seed: 7, Adaptive: true, MaxSamples: 300000})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Samples == 0 || adaptive.EstBoost <= 0 {
		t.Fatalf("degenerate adaptive run: %+v", adaptive)
	}
	if adaptive.EstBoost < 0.7*immRes.EstBoost {
		t.Fatalf("adaptive boost %v far below IMM's %v", adaptive.EstBoost, immRes.EstBoost)
	}
}

func TestSelectSeedsAdaptive(t *testing.T) {
	r := rng.New(9)
	g := testutil.RandomGraph(r, 30, 80, 0.3)
	res, err := rrset.SelectSeedsContext(context.Background(), g, 3, rrset.Options{Seed: 2, Adaptive: true, MaxSamples: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 3 {
		t.Fatalf("%d seeds", len(res.Seeds))
	}
	if res.EstInfluence < 3 {
		t.Fatalf("influence estimate %v below seed count", res.EstInfluence)
	}
}

// Cancellation must reach the adaptive controller's sampling, not just
// its setup: an injected stall holds the first Extend's shard at the
// build boundary, and canceling during it must abort the whole build
// with ctx.Err(), for PRR pools and RR-set seed selection alike.
func TestAdaptiveBuildHonorsCancel(t *testing.T) {
	g := testutil.RandomGraph(rng.New(8), 200, 800, 0.1)
	seeds := []int32{0, 1}
	runs := map[string]func(ctx context.Context) error{
		"adaptive": func(ctx context.Context) error {
			_, err := BuildPoolContext(ctx, g, seeds, Options{K: 3, Seed: 3, Workers: 2, Adaptive: true}, prr.ModeFull)
			return err
		},
		"rrset-adaptive": func(ctx context.Context) error {
			_, err := rrset.SelectSeedsContext(ctx, g, 3, rrset.Options{Seed: 3, Workers: 2, Adaptive: true})
			return err
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			faults.Reset()
			t.Cleanup(faults.Reset)
			faults.Enable(faults.PoolBuildShard, faults.Fault{Mode: "latency", Delay: 2 * time.Second, Count: 1})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			time.AfterFunc(30*time.Millisecond, cancel)
			start := time.Now()
			if err := run(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled build returned %v, want context.Canceled", err)
			}
			if d := time.Since(start); d > 1500*time.Millisecond {
				t.Errorf("cancellation took %s, want a prompt return well before the injected 2s stall", d)
			}
		})
	}
}
