// Ltextension: serving boosted-LT queries from a warm engine.
//
// The paper develops its algorithms for the Independent Cascade model
// and names the Linear Threshold model as future work (Section IX).
// kboost ships a boosted-LT extension and serves it through the same
// cached Engine as the IC/PRR path: a `mode:"lt"` boost query samples a
// pool of threshold profiles once, and every later query against the
// same (graph, seed set) — other budgets k, estimates of arbitrary
// boost sets, identical repeats — reuses those sampled worlds instead
// of re-running Monte-Carlo from scratch.
//
// This example measures exactly that: a cold LT boost query against a
// fresh engine, then warm repeats and variations, printing the latency
// ratio and the engine's sim_modes.lt counters. It closes with the
// cross-model comparison the extension exists for — how an IC-chosen
// PRR-Boost set scores when the world actually diffuses by boosted LT.
//
// Run with: go run ./examples/ltextension
package main

import (
	"fmt"
	"log"
	"time"

	kboost "github.com/kboost/kboost"
)

func main() {
	g, err := kboost.GenerateDataset("digg", 0.008, 2, 21)
	if err != nil {
		log.Fatal(err)
	}
	seedRes, err := kboost.SelectSeeds(g, 10, kboost.SeedOptions{Seed: 21, MaxSamples: 50000})
	if err != nil {
		log.Fatal(err)
	}
	seeds := seedRes.Seeds
	fmt.Printf("network: %d users, %d edges, %d seeds\n\n", g.N(), g.M(), len(seeds))

	eng := kboost.NewEngine(kboost.EngineOptions{})
	if err := eng.RegisterGraph("prod", g); err != nil {
		log.Fatal(err)
	}

	const k = 10
	req := kboost.EngineBoostRequest{
		GraphID: "prod", Seeds: seeds, K: k,
		Mode: "lt", Sims: 8000, Seed: 33,
	}

	// Cold: samples 8000 threshold profiles, caches the pool, runs the
	// CELF lazy-greedy over it.
	start := time.Now()
	cold, err := eng.Boost(req)
	if err != nil {
		log.Fatal(err)
	}
	coldT := time.Since(start)
	fmt.Printf("cold  mode=lt boost: set %v, Δ̂=%.2f  (%.0f ms, %d profiles sampled)\n",
		cold.BoostSet, cold.EstBoost, float64(coldT.Microseconds())/1e3, cold.NewSamples)

	// Warm repeat: pool hit + result-cache hit, no sampling, no greedy.
	start = time.Now()
	warm, err := eng.Boost(req)
	if err != nil {
		log.Fatal(err)
	}
	warmT := time.Since(start)
	fmt.Printf("warm  mode=lt boost: cache_hit=%v result_cached=%v  (%.3f ms — %.0fx faster)\n",
		warm.CacheHit, warm.ResultCached,
		float64(warmT.Microseconds())/1e3, float64(coldT)/float64(warmT))

	// A different budget reuses the same profiles (LT pools have no k
	// budget), and a raised sims target extends the pool in place.
	req2 := req
	req2.K = 25
	if _, err := eng.Boost(req2); err != nil {
		log.Fatal(err)
	}
	req3 := req
	req3.Sims = 12000
	grown, err := eng.Boost(req3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("k=25 reused the pool; sims=12000 extended it in place (+%d profiles)\n\n", grown.NewSamples)

	// Cross-model check on the warm pool: how does the IC-native
	// PRR-Boost set fare under boosted-LT diffusion?
	prr, err := eng.Boost(kboost.EngineBoostRequest{
		GraphID: "prod", Seeds: seeds, K: k, Seed: 21, MaxSamples: 50000,
	})
	if err != nil {
		log.Fatal(err)
	}
	icOnLT, err := eng.Estimate(kboost.EngineEstimateRequest{
		GraphID: "prod", Seeds: seeds, Boost: prr.BoostSet, Mode: "lt", Sims: 12000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("boost of %d nodes under the boosted-LT model (same profile pool):\n", k)
	fmt.Printf("  LT-native pooled greedy:  %6.2f\n", cold.EstBoost)
	fmt.Printf("  PRR-Boost (IC-chosen):    %6.2f  (estimate cache_hit=%v)\n", icOnLT.Boost, icOnLT.CacheHit)

	lt := eng.Stats().SimModes["lt"]
	fmt.Printf("\nengine counters (sim_modes.lt): boost_queries=%d estimate_queries=%d "+
		"pool_hits=%d pool_misses=%d pool_extensions=%d result_hits=%d profiles=%d\n",
		lt.BoostQueries, lt.EstimateQueries, lt.PoolHits, lt.PoolMisses,
		lt.PoolExtensions, lt.ResultHits, lt.Profiles)

	fmt.Println("\ntakeaway: IC-chosen boosts carry a useful fraction of their value")
	fmt.Println("to the LT world, but the model-native selector does better — and the")
	fmt.Println("pooled engine makes asking the LT question as cheap as the IC one.")
	fmt.Println("(Boosted LT has no approximation guarantee; both LT numbers are")
	fmt.Println("Monte-Carlo heuristics over the shared profile pool.)")
}
