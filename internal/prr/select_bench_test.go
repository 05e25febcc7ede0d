package prr

import (
	"testing"

	"github.com/kboost/kboost/internal/dataset"
)

// The selection benchmarks run on a scaled stand-in of the paper's
// flixster dataset — the same generator the repo-level figure
// benchmarks use — so ns/op here tracks the warm-query numbers of the
// serving path. `make bench` emits them as BENCH_select.json; CI runs
// them once in short mode as a smoke test.

func benchPool(b *testing.B, k int) *Pool {
	b.Helper()
	scale, samples := 0.01, 20000
	if testing.Short() {
		scale, samples = 0.004, 3000
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
	pool, err := NewPool(g, seeds, k, ModeFull, 7, 0)
	if err != nil {
		b.Fatal(err)
	}
	extend(b, pool, samples)
	return pool
}

// BenchmarkSelectDeltaWarm measures repeat-query selection on an
// already-built pool: the incremental index + lazy-heap SelectDelta
// against the retained from-scratch naive reference. This is the
// warm-path cost a cached Engine pool pays per boost query (absent a
// result-cache hit).
func BenchmarkSelectDeltaWarm(b *testing.B) {
	const k = 20
	pool := benchPool(b, k)
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := pool.SelectDelta(k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := pool.selectDeltaNaive(k); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtendIncremental measures pool growth including the
// incremental maintenance of the selection index: one-shot generation
// versus the same total arriving in ten batches (the Engine's
// GrowPoolContext pattern), which exercises the posting-CSR merge
// repeatedly.
func BenchmarkExtendIncremental(b *testing.B) {
	total := 10000
	if testing.Short() {
		total = 2000
	}
	spec, err := dataset.ByName("flixster")
	if err != nil {
		b.Fatal(err)
	}
	scale := 0.01
	if testing.Short() {
		scale = 0.004
	}
	g, err := spec.Generate(scale, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	seeds := dataset.InfluentialSeeds(g, 20)
	run := func(b *testing.B, steps int) {
		for i := 0; i < b.N; i++ {
			pool, err := NewPool(g, seeds, 20, ModeFull, 7, 0)
			if err != nil {
				b.Fatal(err)
			}
			for s := 1; s <= steps; s++ {
				extend(b, pool, total*s/steps)
			}
		}
	}
	b.Run("oneshot", func(b *testing.B) { run(b, 1) })
	b.Run("staged10", func(b *testing.B) { run(b, 10) })
}

// BenchmarkPoolBuildCold is the cold-path gate: the full first-query
// cost of a boost request that misses the pool cache — NewPool plus a
// one-shot Extend to the sample budget, including arena emission, the
// coverage index and the selection index. This is what pre-warming and
// the arena layout exist to amortize.
func BenchmarkPoolBuildCold(b *testing.B) {
	scale, samples := 0.01, 10000
	if testing.Short() {
		scale, samples = 0.004, 2000
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool, err := NewPool(g, seeds, 20, ModeFull, 7, 0)
		if err != nil {
			b.Fatal(err)
		}
		extend(b, pool, samples)
	}
}

// BenchmarkPRREval measures a full Δ̂ evaluation sweep over the pool:
// one Eval BFS per boostable graph against a fixed boost set. With
// arena-backed storage the sweep walks contiguous memory; before the
// refactor every graph was a separate heap object. Reported per sweep,
// with graphs/op recording the sweep width.
func BenchmarkPRREval(b *testing.B) {
	pool := benchPool(b, 20)
	chosen, _, err := pool.SelectDelta(20)
	if err != nil {
		b.Fatal(err)
	}
	if len(chosen) == 0 {
		b.Fatal("empty selection")
	}
	mask := make([]bool, pool.Graph().N())
	for _, v := range chosen {
		mask[v] = true
	}
	s := NewScratch()
	covered := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for gi := 0; gi < pool.arena.numGraphs(); gi++ {
			R := pool.arena.at(gi)
			if R.Eval(mask, s) {
				covered++
			}
		}
	}
	if covered == 0 {
		b.Fatal("boost set covered nothing")
	}
	b.ReportMetric(float64(pool.arena.numGraphs()), "graphs/op")
}
