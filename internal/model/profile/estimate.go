package profile

import "fmt"

// EstimateParallelMin is the minimum number of affected profiles before
// an estimate fans out to the pool's workers; a variable so tests can
// force the parallel path on small pools.
var EstimateParallelMin = 256

// Estimate returns the pooled estimates of the boosted spread σ̂(B) and
// of the boost Δ̂_S(B) = σ̂(B) − σ̂(∅), both read off one incremental
// evaluation of boost from every affected profile's cached base world.
// It is deterministic for a fixed pool generation, bit-exact across
// worker counts, and shares its possible worlds with every other
// estimate from the same pool (common random numbers). Both legs of Δ̂
// are evaluated on the same profiles, so the difference is coupled (far
// lower variance than differencing two independent Monte-Carlo runs),
// exactly zero for an empty or ineffective boost set, and — because the
// activation sums are differenced as integers before dividing —
// bit-identical to the estimate the greedy selections report for the
// same boost set.
func (p *Pool[W, S]) Estimate(boost []int32) (spread, delta float64, err error) {
	total, err := p.estimateCount(boost)
	if err != nil {
		return 0, 0, err
	}
	r := float64(len(p.profileSeed))
	return float64(total) / r, float64(total-p.BaseSum()) / r, nil
}

// EstimateSpread returns Estimate's σ̂(B).
func (p *Pool[W, S]) EstimateSpread(boost []int32) (float64, error) {
	spread, _, err := p.Estimate(boost)
	return spread, err
}

// EstimateBoost returns Estimate's Δ̂_S(B).
func (p *Pool[W, S]) EstimateBoost(boost []int32) (float64, error) {
	_, delta, err := p.Estimate(boost)
	return delta, err
}

// estimateCount returns Σ_i |active_i(B)|, the integer numerator of the
// pooled spread estimate: the cached base sum plus the incremental
// deltas of the profiles whose frontier intersects the boost set (no
// other profile can change — see idxStart).
func (p *Pool[W, S]) estimateCount(boost []int32) (int64, error) {
	if len(p.profileSeed) == 0 {
		return 0, fmt.Errorf("%s: estimate on an empty pool (call Extend first)", p.name)
	}
	n := p.g.N()
	mask := make([]bool, n)
	for _, v := range boost {
		if v < 0 || int(v) >= n {
			return 0, fmt.Errorf("%s: boost node %d out of range [0,%d)", p.name, v, n)
		}
		mask[v] = true
	}
	// Dense boost list (deduplicated, sorted) for the per-profile pass.
	var bset []int32
	for v := int32(0); int(v) < n; v++ {
		if mask[v] {
			bset = append(bset, v)
		}
	}
	// The affected profiles, ascending: the union of bset's frontier
	// posting lists, marked in a bitmap.
	hit, total := make([]bool, len(p.profileSeed)), 0
	for _, v := range bset {
		total += len(p.FrontierProfiles(v))
		for _, pi := range p.FrontierProfiles(v) {
			hit[pi] = true
		}
	}
	profs := make([]int32, 0, min(total, len(hit)))
	for pi, h := range hit {
		if h {
			profs = append(profs, int32(pi))
		}
	}
	return p.BaseSum() + p.sumDeltas(profs, bset, mask), nil
}

// sumDeltas evaluates bset incrementally on each listed profile and
// returns the summed activation deltas, fanning out to the pool's
// workers for large batches. Deltas are integers summed in any
// order, so the result does not depend on the sharding.
func (p *Pool[W, S]) sumDeltas(profs []int32, bset []int32, mask []bool) int64 {
	workers := p.workers
	if len(profs) < EstimateParallelMin {
		workers = 1
	}
	sums := make([]int64, workers)
	ForChunks(len(profs), workers, func(w, lo, hi int) {
		s := p.Scratch()
		defer p.PutScratch(s)
		var sum int64
		for _, pi := range profs[lo:hi] {
			sum += int64(p.c.Delta(p.Profile(int(pi)), bset, mask, nil, s))
		}
		sums[w] = sum
	})
	var total int64
	for _, v := range sums {
		total += v
	}
	return total
}
