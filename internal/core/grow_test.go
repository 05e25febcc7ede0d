package core

import (
	"context"
	"errors"
	"testing"

	"github.com/kboost/kboost/internal/prr"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// TestGrowCappedPool: GrowPoolContext on a pool that already holds
// MaxSamples samples adds none and leaves the pool as it was, yet still
// reports a canceled context, a k above the pool's budget and every
// validation error; a larger cap still grows the pool.
func TestGrowCappedPool(t *testing.T) {
	r := rng.New(17)
	g := testutil.RandomGraph(r, 30, 90, 0.3)
	seeds := []int32{0, 4}
	opt := Options{K: 2, Seed: 5, MaxSamples: 400}
	for _, mode := range []prr.Mode{prr.ModeFull, prr.ModeLB} {
		pool, err := BuildPoolContext(context.Background(), g, seeds, opt, mode)
		if err != nil {
			t.Fatal(err)
		}
		if pool.Size() < opt.MaxSamples {
			t.Fatalf("mode %v: built %d samples, want the cap %d", mode, pool.Size(), opt.MaxSamples)
		}
		size, gen, stats := pool.Size(), pool.Generation(), pool.Stats()
		same := func(what string) {
			t.Helper()
			if pool.Size() != size || pool.Generation() != gen || pool.Stats() != stats {
				t.Fatalf("mode %v, %s: pool changed: size %d gen %d, want %d %d", mode, what, pool.Size(), pool.Generation(), size, gen)
			}
		}
		for _, o := range []Options{opt, {K: 1, Seed: 9, MaxSamples: opt.MaxSamples / 2}} {
			added, err := GrowPoolContext(context.Background(), pool, o)
			if err != nil || added != 0 {
				t.Fatalf("mode %v, cap %d: added %d, err %v; want 0, nil", mode, o.MaxSamples, added, err)
			}
			same("capped grow")
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if added, err := GrowPoolContext(ctx, pool, opt); added != 0 || !errors.Is(err, context.Canceled) {
			t.Fatalf("mode %v: canceled grow returned %d, %v", mode, added, err)
		}
		for name, o := range map[string]Options{
			"k above the pool's budget": {K: 3, MaxSamples: opt.MaxSamples},
			"k = 0":                     {K: 0, MaxSamples: opt.MaxSamples},
			"k above the non-seeds":     {K: g.N(), MaxSamples: opt.MaxSamples},
			"epsilon >= 1":              {K: 1, Epsilon: 1, MaxSamples: opt.MaxSamples},
		} {
			if added, err := GrowPoolContext(context.Background(), pool, o); added != 0 || err == nil {
				t.Fatalf("mode %v: %s accepted: added %d", mode, name, added)
			}
		}
		same("rejected grows")

		added, err := GrowPoolContext(context.Background(), pool, Options{K: 2, Seed: 5, MaxSamples: 2 * opt.MaxSamples})
		if err != nil || added <= 0 || pool.Size() != size+added {
			t.Fatalf("mode %v: grow past the cap added %d (size %d -> %d), err %v", mode, added, size, pool.Size(), err)
		}
	}
}
