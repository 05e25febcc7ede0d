// Package profiletest holds the naive full-resimulation references the
// pooled models' incremental estimates and selections are
// property-tested against, and the contract oracle for the gains half
// of profile.Cascade.Delta. It is imported only by tests.
package profiletest

import (
	"fmt"
	"math"
	"slices"

	"github.com/kboost/kboost/internal/dataset"
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/model/profile"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// NaiveSpread re-simulates every profile of p from scratch under the
// boost set — the reference for Pool.Estimate's σ̂.
func NaiveSpread[W, S any](p *profile.Pool[W, S], boost []int32) float64 {
	mask := make([]bool, p.Graph().N())
	for _, v := range boost {
		mask[v] = true
	}
	return float64(resimulate(p, mask)) / float64(p.NumProfiles())
}

// resimulate returns Σ_i |active_i(mask)| by full re-simulation.
func resimulate[W, S any](p *profile.Pool[W, S], mask []bool) int64 {
	c := p.Cascade()
	s := p.Scratch()
	defer p.PutScratch(s)
	var sum int64
	for pi := 0; pi < p.NumProfiles(); pi++ {
		sum += int64(c.Simulate(p.Profile(pi).Seed, mask, s))
	}
	return sum
}

// NaiveGreedy is the reference greedy: each round it re-simulates every
// profile from scratch for every remaining default candidate (see
// profile.Candidates) and takes the best — ties toward the smaller node
// id, stopping when no candidate adds activations. It returns the
// chosen nodes in pick order and the pooled Δ̂ of the chosen set.
func NaiveGreedy[W, S any](p *profile.Pool[W, S], k, candCap int) ([]int32, float64, error) {
	if err := p.CheckSelect(k); err != nil {
		return nil, 0, err
	}
	cands := profile.Candidates(p.Graph(), p.SeedMask(), k, candCap)
	slices.Sort(cands)
	mask := make([]bool, p.Graph().N())
	curSum := p.BaseSum()
	var chosen []int32
	for len(chosen) < k {
		best := int32(-1)
		bestSum := curSum
		for _, v := range cands {
			if mask[v] {
				continue
			}
			mask[v] = true
			if sum := resimulate(p, mask); sum > bestSum {
				best, bestSum = v, sum
			}
			mask[v] = false
		}
		if best < 0 {
			break
		}
		chosen = append(chosen, best)
		mask[best] = true
		curSum = bestSum
	}
	return chosen, float64(curSum-p.BaseSum()) / float64(p.NumProfiles()), nil
}

// CheckGains is the contract oracle for the greedy half of
// profile.Cascade.Delta. On every profile of p, with boost set bset and
// every other non-seed node a candidate, it checks against Simulate
// re-runs of that profile that
//   - Delta's activations and every reported gain are exact,
//   - no candidate with a positive true gain is missing, and
//   - every node whose boosting changes the profile's activations or
//     some candidate's gain lies in the base frontier or the touch set,
//     the rule the greedy re-evaluates profiles by.
//
// It returns the first violation, or nil. Each profile costs O(n²)
// simulations, so p should be tiny.
func CheckGains[W, S any](p *profile.Pool[W, S], bset []int32) error {
	n := p.Graph().N()
	mask := make([]bool, n)
	for _, v := range bset {
		mask[v] = true
	}
	open := make([]bool, n)
	for v := range open {
		open[v] = !mask[v] && !p.SeedMask()[v]
	}
	c, s := p.Cascade(), p.Scratch()
	defer p.PutScratch(s)
	// sim re-runs the profile seeded by ps under bset plus extra.
	sim := func(ps uint64, extra ...int32) int {
		for _, v := range extra {
			mask[v] = true
		}
		got := c.Simulate(ps, mask, s)
		for _, v := range extra {
			mask[v] = false
		}
		return got
	}
	want := make([]int, n)
	for pi := 0; pi < p.NumProfiles(); pi++ {
		pr := p.Profile(pi)
		delta, gains, touch := p.ProfileGains(pi, bset, mask, open)
		base := sim(pr.Seed)
		if delta != base-len(pr.Active) {
			return fmt.Errorf("profile %d: bset %v adds %d activations, want %d", pi, bset, delta, base-len(pr.Active))
		}
		for v := int32(0); int(v) < n; v++ {
			if want[v] = 0; open[v] {
				want[v] = sim(pr.Seed, v) - base
			}
			if gains[v] != want[v] {
				return fmt.Errorf("profile %d: bset %v: node %d gains %d, want %d", pi, bset, v, gains[v], want[v])
			}
		}
		for x := int32(0); int(x) < n; x++ {
			if mask[x] || slices.Contains(pr.Front, x) || slices.Contains(touch, x) {
				continue
			}
			if sim(pr.Seed, x) != base {
				return fmt.Errorf("profile %d: bset %v: boosting %d, outside frontier %v and touch set %v, changes the activations", pi, bset, x, pr.Front, touch)
			}
			for v := int32(0); int(v) < n; v++ {
				if open[v] && v != x && sim(pr.Seed, x, v)-base != want[v] {
					return fmt.Errorf("profile %d: bset %v: boosting %d, outside frontier %v and touch set %v, changes candidate %d's gain", pi, bset, x, pr.Front, touch, v)
				}
			}
		}
	}
	return nil
}

// EstimateCountAll is the all-postings reference for the pooled
// estimates' integer numerator Σ_i |active_i(B)|: the base sum plus
// Delta over every profile on a boost node's frontier posting list,
// none skipped, serially. Pool.Estimate's σ̂ must be exactly this
// count over NumProfiles, whatever its Quieter lets it skip.
func EstimateCountAll[W, S any](p *profile.Pool[W, S], boost []int32) int64 {
	mask := make([]bool, p.Graph().N())
	for _, v := range boost {
		mask[v] = true
	}
	var bset []int32
	for v, in := range mask {
		if in {
			bset = append(bset, int32(v))
		}
	}
	hit := make([]bool, p.NumProfiles())
	for _, v := range bset {
		for _, pi := range p.FrontierProfiles(v) {
			hit[pi] = true
		}
	}
	c, s := p.Cascade(), p.Scratch()
	defer p.PutScratch(s)
	sum := p.BaseSum()
	for pi, h := range hit {
		if h {
			sum += int64(c.Delta(p.Profile(pi), bset, mask, nil, s))
		}
	}
	return sum
}

// CheckQuiet is the soundness oracle for a cascade's profile.Quieter.
// For every profile of p and every node v of its frontier that Quiet
// calls quiet, boosting v alone must add no activation: Delta's
// phase-1 test must fail for v, since a node that passes it activates.
// It returns the number of quiet and of all (profile, frontier node)
// pairs, and the first violation.
func CheckQuiet[W, S any](p *profile.Pool[W, S]) (quiet, pairs int, err error) {
	q, ok := p.Cascade().(profile.Quieter[W])
	if !ok {
		return 0, 0, fmt.Errorf("the cascade has no Quieter")
	}
	mask := make([]bool, p.Graph().N())
	c, s := p.Cascade(), p.Scratch()
	defer p.PutScratch(s)
	for pi := 0; pi < p.NumProfiles(); pi++ {
		pr := p.Profile(pi)
		for j, v := range pr.Front {
			pairs++
			if !q.Quiet(pr.Seed, v, pr.Pay[j], q.Gate(v)) {
				continue
			}
			quiet++
			mask[v] = true
			d := c.Delta(pr, []int32{v}, mask, nil, s)
			mask[v] = false
			if d != 0 {
				return quiet, pairs, fmt.Errorf("profile %d: node %d (payload %v) is quiet, but boosting it adds %d activations", pi, v, pr.Pay[j], d)
			}
		}
	}
	return quiet, pairs, nil
}

// OracleGraph is a graph with a seed set for the estimate oracles.
type OracleGraph struct {
	Name  string
	G     *graph.Graph
	Seeds []int32
}

// OracleGraphs returns the graphs the estimate-skip oracles run on: the
// digg (scale 0.02) and flickr (0.01) stand-ins with their most
// influential seeds, a random graph, and testutil's edge-case graph,
// whose p = 0 < p′ edges leave frontier payloads at 0 that boosting can
// lift.
func OracleGraphs() ([]OracleGraph, error) {
	var out []OracleGraph
	for _, ds := range []struct {
		name  string
		scale float64
		seeds int
	}{{"digg", 0.02, 5}, {"flickr", 0.01, 20}} {
		spec, err := dataset.ByName(ds.name)
		if err != nil {
			return nil, err
		}
		g, err := spec.Generate(ds.scale, 2, 1)
		if err != nil {
			return nil, err
		}
		out = append(out, OracleGraph{ds.name, g, dataset.InfluentialSeeds(g, ds.seeds)})
	}
	r := rng.New(77)
	g := testutil.RandomGraph(r, 80, 400, 0.5)
	out = append(out, OracleGraph{"random", g, testutil.RandomSeedSet(r, g.N(), 3)})
	g = testutil.EdgeCaseGraph(r, 80, 400, 0.8)
	out = append(out, OracleGraph{"edge-case", g, testutil.RandomSeedSet(r, g.N(), 3)})
	return out, nil
}

// RandomBoost draws a boost set of up to 8 nodes for p: mostly nodes
// from some profile's frontier, which an estimate must evaluate, mixed
// with seeds, arbitrary nodes and duplicates.
func RandomBoost[W, S any](r *rng.Source, p *profile.Pool[W, S]) []int32 {
	boost := make([]int32, r.Intn(9))
	for i := range boost {
		switch x := r.Intn(8); {
		case x == 0 && len(p.Seeds()) > 0:
			boost[i] = p.Seeds()[r.Intn(len(p.Seeds()))]
		case x == 1 && i > 0:
			boost[i] = boost[r.Intn(i)]
		case x < 4:
			boost[i] = int32(r.Intn(p.Graph().N()))
		default:
			front := p.Profile(r.Intn(p.NumProfiles())).Front
			if len(front) == 0 {
				boost[i] = int32(r.Intn(p.Graph().N()))
				break
			}
			boost[i] = front[r.Intn(len(front))]
		}
	}
	return boost
}

// CheckEstimates compares Pool.Estimate with the all-postings reference
// (EstimateCountAll) bit for bit over sets random boost sets, each on
// the serial path and, with profile.EstimateParallelMin = 1, on the
// sharded one. It returns the first mismatch, or nil.
func CheckEstimates[W, S any](r *rng.Source, p *profile.Pool[W, S], sets int) error {
	defer func(m int) { profile.EstimateParallelMin = m }(profile.EstimateParallelMin)
	R := float64(p.NumProfiles())
	for i := 0; i < sets; i++ {
		boost := RandomBoost(r, p)
		want := EstimateCountAll(p, boost)
		for _, pmin := range []int{math.MaxInt, 1} {
			profile.EstimateParallelMin = pmin
			spread, delta, err := p.Estimate(boost)
			if err != nil {
				return err
			}
			if math.Float64bits(spread) != math.Float64bits(float64(want)/R) ||
				math.Float64bits(delta) != math.Float64bits(float64(want-p.BaseSum())/R) {
				return fmt.Errorf("boost %v (parallel min %d): Estimate = (%v, %v), all postings give (%v, %v)",
					boost, pmin, spread, delta, float64(want)/R, float64(want-p.BaseSum())/R)
			}
		}
	}
	return nil
}
