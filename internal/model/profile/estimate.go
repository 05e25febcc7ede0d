package profile

import (
	"fmt"
	"math"
)

// EstimateParallelMin is the minimum number of affected profiles before
// an estimate fans out to the pool's workers; a variable so tests can
// force the parallel path on small pools.
var EstimateParallelMin = 256

// EstimateSpread returns the pooled estimate of the boosted spread
// σ̂(B) by incrementally evaluating boost from every affected profile's
// cached base world. It is deterministic for a fixed pool generation,
// bit-exact across worker counts, and shares its possible worlds with
// every other estimate from the same pool (common random numbers).
func (p *Pool[W, S]) EstimateSpread(boost []int32) (float64, error) {
	total, err := p.estimateCount(boost)
	if err != nil {
		return 0, err
	}
	return float64(total) / float64(len(p.profileSeed)), nil
}

// EstimateBoost returns the pooled estimate of the boost
// Δ̂_S(B) = σ̂(B) − σ̂(∅). Both terms are evaluated on the same
// profiles, so the difference is coupled (far lower variance than
// differencing two independent Monte-Carlo runs), exactly zero for an
// empty or ineffective boost set, and — because the activation sums are
// differenced as integers before dividing — bit-identical to the
// estimate the greedy selections report for the same boost set.
func (p *Pool[W, S]) EstimateBoost(boost []int32) (float64, error) {
	total, err := p.estimateCount(boost)
	if err != nil {
		return 0, err
	}
	return float64(total-p.BaseSum()) / float64(len(p.profileSeed)), nil
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
	profs := p.mergeFrontierProfiles(nil, bset)
	return p.BaseSum() + p.sumDeltas(profs, bset, mask, -1), nil
}

// mergeFrontierProfiles returns the sorted, deduplicated union of base
// (already sorted ascending) and the posting lists of each node in
// vs — the profiles a boost over base's owners plus vs could change.
func (p *Pool[W, S]) mergeFrontierProfiles(base []int32, vs []int32) []int32 {
	lists := make([][]int32, 0, len(vs)+1)
	if len(base) > 0 {
		lists = append(lists, base)
	}
	for _, v := range vs {
		if pl := p.FrontierProfiles(v); len(pl) > 0 {
			lists = append(lists, pl)
		}
	}
	return mergeSorted(lists)
}

// mergeSorted merges sorted int32 lists into a sorted, deduplicated
// union. The posting lists are short relative to R, so a simple k-way
// min scan is enough.
func mergeSorted(lists [][]int32) []int32 {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	var out []int32
	cur := make([]int, len(lists))
	for {
		best := int32(math.MaxInt32)
		found := false
		for li, l := range lists {
			if cur[li] < len(l) && l[cur[li]] < best {
				best = l[cur[li]]
				found = true
			}
		}
		if !found {
			return out
		}
		out = append(out, best)
		for li, l := range lists {
			for cur[li] < len(l) && l[cur[li]] == best {
				cur[li]++
			}
		}
	}
}

// sumDeltas evaluates bset ∪ {extra} incrementally on each listed
// profile and returns the summed activation deltas, fanning out to the
// pool's workers for large batches. Deltas are integers summed in any
// order, so the result does not depend on the sharding.
func (p *Pool[W, S]) sumDeltas(profs []int32, bset []int32, mask []bool, extra int32) int64 {
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
			sum += int64(p.c.Delta(p.Profile(int(pi)), bset, mask, extra, s))
		}
		sums[w] = sum
	})
	var total int64
	for _, v := range sums {
		total += v
	}
	return total
}
