package lt

import (
	"testing"

	"github.com/kboost/kboost/internal/dataset"
)

// The pooled-LT benchmarks run on the same flixster stand-in the PRR
// selection benchmarks use, so their ns/op track the serving path's
// warm-query numbers. `make bench` emits them into BENCH_select.json;
// CI smoke-runs them in short mode.

func benchLTPool(b *testing.B) *Pool {
	b.Helper()
	scale, profiles := 0.01, 10000
	if testing.Short() {
		scale, profiles = 0.004, 1000
	}
	spec, err := dataset.ByName("flixster")
	if err != nil {
		b.Fatal(err)
	}
	g, err := spec.Generate(scale, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	seeds := dataset.InfluentialSeeds(g, 20)
	pool, err := NewPool(g, seeds, 7, 0)
	if err != nil {
		b.Fatal(err)
	}
	pool.Extend(profiles)
	return pool
}

// BenchmarkLTSelectWarm measures repeat-query selection on an
// already-built profile pool: the kernel's lazy-greedy GreedyBoost
// against the retained full-rescan naive reference (which re-simulates
// every profile for every candidate each round — the O(cands·k·R) loop
// the pooled greedy replaces).
func BenchmarkLTSelectWarm(b *testing.B) {
	const k = 10
	pool := benchLTPool(b)
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := pool.GreedyBoost(k, 0); err != nil {
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

// BenchmarkLTEstimateWarm measures the incremental batch estimator
// against the from-scratch re-simulation reference on the same pool.
func BenchmarkLTEstimateWarm(b *testing.B) {
	pool := benchLTPool(b)
	boost := pool.Graph().N()
	set := []int32{int32(boost / 3), int32(boost / 2), int32(2 * boost / 3)}
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

// benchLTPoolShort is the fixed small pool behind the -Short gate
// variants. The full-size pool above puts the naive references at 1–9
// iterations per run — too few for a regression gate to tell signal
// from scheduler noise — so the gated variants run on a pool small
// enough that every sub-benchmark completes ≥ 20 iterations in the
// default benchtime. Sizes are deliberately NOT testing.Short()-gated:
// the gate compares against a committed baseline, so the dimensions
// must be identical on every machine that runs `make bench-gate`.
func benchLTPoolShort(b *testing.B) *Pool {
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
	pool, err := NewPool(g, seeds, 7, 0)
	if err != nil {
		b.Fatal(err)
	}
	pool.Extend(200)
	return pool
}

// BenchmarkLTSelectWarmShort is the gated counterpart of
// BenchmarkLTSelectWarm: same incremental-vs-naive comparison, small
// enough to gate on (it is in the Makefile's GATED set, which `make
// bench-gate` runs on both trees and compares).
func BenchmarkLTSelectWarmShort(b *testing.B) {
	const k = 4
	pool := benchLTPoolShort(b)
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := pool.GreedyBoost(k, 0); err != nil {
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

// BenchmarkLTEstimateWarmShort is the gated counterpart of
// BenchmarkLTEstimateWarm on the same small pool.
func BenchmarkLTEstimateWarmShort(b *testing.B) {
	pool := benchLTPoolShort(b)
	boost := pool.Graph().N()
	set := []int32{int32(boost / 3), int32(boost / 2), int32(2 * boost / 3)}
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
