package kthresh

import (
	"context"
	"testing"

	"github.com/kboost/kboost/internal/dataset"
)

// The k-threshold benchmarks run on the same flixster stand-in the LT
// and SIR pool benchmarks use, at the default threshold τ = 2. The Warm
// pair below feeds BENCH_select.json via `make bench` and is held to
// the 25% envelope by `make bench-gate`. Dimensions are deliberately
// NOT testing.Short()-gated: the gate compares against a committed
// baseline, so they must be identical on every machine.
func benchKTPool(b *testing.B) *Pool {
	b.Helper()
	spec, err := dataset.ByName("flixster")
	if err != nil {
		b.Fatal(err)
	}
	g, err := spec.Generate(0.002, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	seeds := dataset.InfluentialSeeds(g, 10)
	pool, err := New(2).NewPool(g, seeds, 7, 0)
	if err != nil {
		b.Fatal(err)
	}
	extend(b, pool, 200)
	return pool
}

// BenchmarkKThreshSelectWarm measures repeat-query selection on an
// already-built contagion pool: the kernel's lazy-greedy GreedyBoost
// against the retained full-resimulation naive reference.
func BenchmarkKThreshSelectWarm(b *testing.B) {
	const k = 4
	pool := benchKTPool(b)
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := pool.GreedyBoostContext(context.Background(), k, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := pool.greedyBoostNaive(k, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKThreshEstimateWarm measures the incremental batch estimator
// against the from-scratch re-simulation reference on the same pool.
func BenchmarkKThreshEstimateWarm(b *testing.B) {
	pool := benchKTPool(b)
	n := pool.Graph().N()
	set := []int32{int32(n / 3), int32(n / 2), int32(2 * n / 3)}
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pool.EstimateSpread(set); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pool.estimateSpreadNaive(set)
		}
	})
}
