package kboost

// Benchmarks for the graph-patch repair path behind
// PATCH /v1/graphs/{name}/edges. BenchmarkGraphPatchRepair measures the
// steady-state cost of migrating a warm pool across an edge delta —
// resample only the touched sketches/profiles, copy the rest — at
// several touched-edge fractions, for both pool families. It is part of
// the bench-gate set. BenchmarkGraphPatchRebuild is its ungated cold
// reference: the same delta absorbed the pre-repair way, by rebuilding
// the pool from scratch on the patched graph. The repair/rebuild ratio
// between the two is the headline number of the patch endpoint.
//
// Each pool family is measured in the regime its touched-set predicate
// operates in. PRR runs on the dense flixster stand-in the warm-query
// benchmarks use: a sketch is touched only when its own expansion
// crossed a dirty in-list, so even there a small delta touches a
// bounded slice of the pool while the cold rebuild costs seconds. LT's
// predicate is per profile too — a profile is touched when one of its
// active nodes' out-lists or one of its pushed nodes' normalizers
// changed — but on flixster's supercritical cascades (avg out-degree ×
// avg p > 1) every profile activates most of the graph, so every delta
// touches every profile and the engine correctly falls back to a
// rebuild. LT therefore runs on the sparse flickr stand-in (avg p
// 0.013), where influence is localized and incremental repair is the
// designed win.

import (
	"testing"

	"github.com/kboost/kboost/internal/graph"
)

// patchDeltas builds a forward/backward pair of reweight-only deltas
// touching ~frac of g's edges, spread evenly across the edges keep
// admits. Reweights keep the topology fixed, so a benchmark can
// alternate fwd/back forever and every iteration patches the same
// steady-state graph.
func patchDeltas(b *testing.B, g *graph.Graph, frac float64, keep func(graph.Edge) bool) (fwd, back *graph.EdgeDelta) {
	b.Helper()
	var pick []graph.Edge
	for _, e := range g.Edges() {
		if keep(e) {
			pick = append(pick, e)
		}
	}
	want := int(frac*float64(g.M()) + 0.5)
	if want < 1 {
		want = 1
	}
	if want > len(pick) {
		b.Fatalf("delta wants %d edges, only %d qualify", want, len(pick))
	}
	fwd, back = &graph.EdgeDelta{}, &graph.EdgeDelta{}
	for i := 0; i < want; i++ {
		e := pick[i*len(pick)/want]
		fwd.Reweight = append(fwd.Reweight,
			graph.Edge{From: e.From, To: e.To, P: e.P * 0.5, PBoost: e.PBoost * 0.5})
		back.Reweight = append(back.Reweight, e)
	}
	return fwd, back
}

// seedHood marks the seeds and, separately, the seeds' out-neighbors
// that are not seeds themselves.
func seedHood(g *graph.Graph, seeds []int32) (seed, nbr []bool) {
	seed, nbr = make([]bool, g.N()), make([]bool, g.N())
	for _, s := range seeds {
		seed[s] = true
	}
	for _, s := range seeds {
		for _, v := range g.OutTo(s) {
			nbr[v] = !seed[v]
		}
	}
	return seed, nbr
}

// awayFromSeeds admits the edges incident to neither a seed nor a
// seed's out-neighbor: the repair benchmarks' default delta.
func awayFromSeeds(g *graph.Graph, seeds []int32) func(graph.Edge) bool {
	seed, nbr := seedHood(g, seeds)
	hot := func(v int32) bool { return seed[v] || nbr[v] }
	return func(e graph.Edge) bool { return !hot(e.From) && !hot(e.To) }
}

// intoFrontier admits the edges that end at a seed's out-neighbor and
// do not start at a seed. Those targets sit in nearly every LT
// profile's active set or frontier, so a predicate that flags every
// dirty in-list they hold re-simulates nearly the whole pool, although
// a reweight of such an edge changes a profile only when its source is
// active there or the target's normalizer moves.
func intoFrontier(g *graph.Graph, seeds []int32) func(graph.Edge) bool {
	seed, nbr := seedHood(g, seeds)
	return func(e graph.Edge) bool { return !seed[e.From] && nbr[e.To] }
}

// patchBenchGraph returns the graph a pool family's patch benchmarks
// run on: dense flixster for PRR, sparse flickr for LT (see the package
// comment above for why they differ).
func patchBenchGraph(b *testing.B, mode string) *graph.Graph {
	b.Helper()
	name := "flixster"
	if mode == "lt" {
		name = "flickr"
	}
	g, err := GenerateDataset(name, 0.01, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// patchBoostReq is the pool-warming query both patch benchmarks share;
// identical budgets keep the repair/rebuild ratio apples-to-apples.
// Budgets are sized so every gated sub-benchmark completes ≥ 20
// iterations at the default benchtime (repair cost scales linearly
// with the pool budget, so the ratio is budget-invariant).
func patchBoostReq(mode string) EngineBoostRequest {
	req := EngineBoostRequest{GraphID: "bench", K: 20, Seed: 7, MaxSamples: 10000}
	if testing.Short() {
		req.MaxSamples = 3000
	}
	if mode == "lt" {
		req.Mode = "lt"
		req.MaxSamples = 0
		req.Sims = 6000
		if testing.Short() {
			req.Sims = 1000
		}
	}
	return req
}

// BenchmarkGraphPatchRepair: one warm pool, b.N edge patches through
// Engine.RepairGraph, alternating a delta and its inverse. Fallback is
// disabled (threshold 1) so a drift in the touched-set predicate shows
// up as a ns/op regression in the gate rather than as a silent switch
// to rebuilds; the PoolsDropped check below makes the switch loud
// anyway. resampled/op records how many sketches/profiles each patch
// actually regenerated.
func BenchmarkGraphPatchRepair(b *testing.B) {
	run := func(b *testing.B, mode string, frac float64, keep func(*graph.Graph, []int32) func(graph.Edge) bool) {
		g := patchBenchGraph(b, mode)
		seeds := InfluentialSeeds(g, 20)
		eng := NewEngine(EngineOptions{RepairFallbackFraction: 1})
		if err := eng.RegisterGraph("bench", g); err != nil {
			b.Fatal(err)
		}
		req := patchBoostReq(mode)
		req.Seeds = seeds
		if _, err := eng.Boost(req); err != nil {
			b.Fatal(err)
		}
		fwd, back := patchDeltas(b, g, frac, keep(g, seeds))
		resampled := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d := fwd
			if i%2 == 1 {
				d = back
			}
			res, err := eng.RepairGraph("bench", d)
			if err != nil {
				b.Fatal(err)
			}
			if res.PoolsRepaired != 1 || res.PoolsDropped != 0 {
				b.Fatalf("patch %d: repaired %d dropped %d, want 1/0",
					i, res.PoolsRepaired, res.PoolsDropped)
			}
			resampled += res.RepairedSketches + res.RepairedProfiles
		}
		b.ReportMetric(float64(resampled)/float64(b.N), "resampled/op")
	}
	for _, tc := range []struct {
		name string
		frac float64
	}{
		{"0.5pct", 0.005},
		{"2pct", 0.02},
		{"5pct", 0.05},
	} {
		b.Run("prr/"+tc.name, func(b *testing.B) { run(b, "prr", tc.frac, awayFromSeeds) })
		b.Run("lt/"+tc.name, func(b *testing.B) { run(b, "lt", tc.frac, awayFromSeeds) })
	}
	// A 0.5% reweight into the seeds' out-neighbors: their in-lists are
	// dirty in nearly every profile's active set or frontier.
	b.Run("lt/frontier", func(b *testing.B) { run(b, "lt", 0.005, intoFrontier) })
}

// BenchmarkGraphPatchRebuild is the cold reference for the repair
// benchmarks: absorb the same 5% delta by rebuilding the pool from
// scratch on the patched graph — the only option before the PATCH
// endpoint existed. Cold build times vary too much across runners to
// gate on, so this one stays informational (the Makefile's GATED
// regexes deliberately do not select it).
func BenchmarkGraphPatchRebuild(b *testing.B) {
	run := func(b *testing.B, mode string) {
		g := patchBenchGraph(b, mode)
		seeds := InfluentialSeeds(g, 20)
		fwd, back := patchDeltas(b, g, 0.05, awayFromSeeds(g, seeds))
		req := patchBoostReq(mode)
		req.Seeds = seeds
		cur := g
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d := fwd
			if i%2 == 1 {
				d = back
			}
			next, _, err := cur.ApplyDelta(d)
			if err != nil {
				b.Fatal(err)
			}
			cur = next
			eng := NewEngine(EngineOptions{})
			if err := eng.RegisterGraph("bench", cur); err != nil {
				b.Fatal(err)
			}
			res, err := eng.Boost(req)
			if err != nil {
				b.Fatal(err)
			}
			if res.CacheHit {
				b.Fatal("rebuild was served from a cache")
			}
		}
	}
	b.Run("prr", func(b *testing.B) { run(b, "prr") })
	b.Run("lt", func(b *testing.B) { run(b, "lt") })
}
