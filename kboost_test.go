package kboost

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The public API integration test: the full pipeline a downstream user
// would run — generate, seed, boost, evaluate — on every stand-in.
func TestPublicPipeline(t *testing.T) {
	for _, name := range DatasetNames() {
		t.Run(name, func(t *testing.T) {
			g, err := GenerateDataset(name, 0.002, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			if g.N() < 10 {
				t.Fatalf("tiny graph: %d nodes", g.N())
			}
			seeds, err := SelectSeeds(g, 3, SeedOptions{Seed: 1, MaxSamples: 5000})
			if err != nil {
				t.Fatal(err)
			}
			res, err := PRRBoost(g, seeds.Seeds, BoostOptions{K: 5, Seed: 1, MaxSamples: 10000})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.BoostSet) != 5 {
				t.Fatalf("|B|=%d", len(res.BoostSet))
			}
			boost, err := EstimateBoost(g, seeds.Seeds, res.BoostSet, SimOptions{Sims: 2000, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			if boost < 0 {
				t.Fatalf("negative boost %v", boost)
			}
		})
	}
}

// TestLTPoolMethodSet pins the exported method set of the LTPool
// facade, so internal restructuring of the LT pool cannot silently add
// or drop public API.
func TestLTPoolMethodSet(t *testing.T) {
	typ := reflect.TypeOf(&LTPool{})
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	want := "[BaseSpread Estimate EstimateBoost EstimateSpread Extend ExtendContext Generation Graph GreedyBoost " +
		"GreedyBoostAmong GreedyBoostAmongContext GreedyBoostContext MemoryEstimate Norms NumProfiles Repair Seeds]"
	if fmt.Sprint(got) != want {
		t.Fatalf("LTPool methods %v, want %s", got, want)
	}
}

// TestLTServingPipeline drives the boosted-LT extension end to end
// through the public API: pooled selection and estimation via LTPool,
// and the same query served warm through the Engine with mode "lt".
func TestLTServingPipeline(t *testing.T) {
	g, err := GenerateDataset("digg", 0.002, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	seeds := InfluentialSeeds(g, 5)

	pool, err := NewLTPool(g, seeds, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool.Extend(1500)
	set, est, err := pool.GreedyBoost(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) == 0 || est < 0 {
		t.Fatalf("pooled greedy returned %v / %v", set, est)
	}
	spread, err := pool.EstimateSpread(set)
	if err != nil {
		t.Fatal(err)
	}
	if spread < float64(len(seeds)) {
		t.Fatalf("spread %v below seed count", spread)
	}

	eng := NewEngine(EngineOptions{})
	if err := eng.RegisterGraph("g", g); err != nil {
		t.Fatal(err)
	}
	req := EngineBoostRequest{GraphID: "g", Seeds: seeds, K: 4, Mode: "lt", Seed: 3, Sims: 1500}
	cold, err := eng.Boost(req)
	if err != nil {
		t.Fatal(err)
	}
	// The engine pool is built with the same (graph, seeds, seed, sims):
	// identical profiles, so its selection must match the direct pool's.
	if got, want := fmt.Sprint(cold.BoostSet), fmt.Sprint(set); got != want || cold.EstBoost != est {
		t.Fatalf("engine lt boost %s/%v != pooled %s/%v", got, cold.EstBoost, want, est)
	}
	warm, err := eng.Boost(req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit || !warm.ResultCached || warm.NewSamples != 0 {
		t.Fatalf("warm lt query not served from cache: %+v", warm)
	}
}

func TestDatasetNames(t *testing.T) {
	names := DatasetNames()
	if len(names) != 4 {
		t.Fatalf("%d datasets", len(names))
	}
	if _, err := GenerateDataset("unknown", 0.01, 2, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestLoadGraphRoundTrip(t *testing.T) {
	g, err := GenerateDataset("digg", 0.002, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	textPath := filepath.Join(dir, "g.txt")
	f, err := os.Create(textPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteText(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g2, err := LoadGraph(textPath)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("text round trip size mismatch")
	}

	binPath := filepath.Join(dir, "g.bin")
	f, err = os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g3, err := LoadGraph(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if g3.N() != g.N() || g3.M() != g.M() {
		t.Fatalf("binary round trip size mismatch")
	}

	if _, err := LoadGraph(filepath.Join(dir, "missing.txt")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestGenerateBidirectedTreeAPI(t *testing.T) {
	for _, shape := range []string{"binary", "random"} {
		g, err := GenerateBidirectedTree(63, shape, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsBidirectedTree() {
			t.Fatalf("%s tree is not bidirected tree", shape)
		}
		tr, err := TreeFromGraph(g, []int32{0})
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := GreedyBoost(tr, 5)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := DPBoost(tr, 5, DPOptions{Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if dp.Delta+1e-9 < dp.DPValue {
			t.Fatalf("DP delta below its own bound")
		}
		if greedy.Delta < 0 || dp.Delta < 0 {
			t.Fatal("negative deltas")
		}
	}
	if _, err := GenerateBidirectedTree(10, "hexagonal", 2, 1); err == nil {
		t.Fatal("unknown shape accepted")
	}
}

func TestReadEdgeListAPI(t *testing.T) {
	input := "10 20\n20 30\n30 10\n"
	g, orig, err := ReadEdgeList(strings.NewReader(input), "const:0.5", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("size %d/%d", g.N(), g.M())
	}
	if len(orig) != 3 || orig[0] != 10 {
		t.Fatalf("orig ids %v", orig)
	}
	if _, _, err := ReadEdgeList(strings.NewReader(input), "bogus", 2, 1); err == nil {
		t.Fatal("bogus model accepted")
	}
}

func TestBoostTargetAPI(t *testing.T) {
	b := NewBuilder(2)
	if err := b.AddEdge(0, 1, 0.1, 0.9); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	recv, err := EstimateBoostTarget(g, []int32{0}, []int32{1}, BoostReceivers, SimOptions{Sims: 100000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	send, err := EstimateBoostTarget(g, []int32{0}, []int32{1}, BoostSenders, SimOptions{Sims: 100000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(recv-0.8) > 0.01 {
		t.Fatalf("receiver boost %v, want ~0.8", recv)
	}
	if math.Abs(send) > 0.01 {
		t.Fatalf("sender boost of sink %v, want ~0", send)
	}
}

func TestExactSpreadAPI(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(0, 1, 0.2, 0.4); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2, 0.1, 0.2); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExactSpread(g, []int32{0}, []int32{1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.44) > 1e-12 {
		t.Fatalf("exact spread %v, want 1.44", got)
	}
}

func TestBaselineAPIs(t *testing.T) {
	g, err := GenerateDataset("digg", 0.002, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	seeds := InfluentialSeeds(g, 3)
	if len(HighDegreeGlobal(g, seeds, 4)) != 4 {
		t.Fatal("HighDegreeGlobal variants missing")
	}
	if len(HighDegreeLocal(g, seeds, 4)) != 4 {
		t.Fatal("HighDegreeLocal variants missing")
	}
	if got := PageRankBoost(g, seeds, 4); len(got) != 4 {
		t.Fatalf("PageRankBoost returned %d", len(got))
	}
	ms, err := MoreSeeds(g, seeds, 4, SeedOptions{Seed: 1, MaxSamples: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 4 {
		t.Fatalf("MoreSeeds returned %d", len(ms))
	}
	rnd := RandomSeeds(g, 5, 1)
	if len(rnd) != 5 {
		t.Fatalf("RandomSeeds returned %d", len(rnd))
	}
}

func TestSandwichRatioAPI(t *testing.T) {
	g, err := GenerateDataset("digg", 0.002, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	seeds := InfluentialSeeds(g, 3)
	res, err := PRRBoost(g, seeds, BoostOptions{K: 4, Seed: 1, MaxSamples: 10000})
	if err != nil {
		t.Fatal(err)
	}
	mu, delta, ratio, err := SandwichRatio(g, seeds, res.BoostSet, 10000, BoostOptions{K: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if mu > delta+1e-9 {
		t.Fatalf("μ=%v > Δ=%v", mu, delta)
	}
	if delta > 0 && (ratio <= 0 || ratio > 1+1e-9) {
		t.Fatalf("ratio %v", ratio)
	}
}
