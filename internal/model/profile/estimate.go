package profile

import (
	"fmt"
	"slices"
)

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
// other profile can change — see idxStart), less those the cascade's
// Quieter proves unchanged. It costs O(|boost| log |boost| + postings
// + m log m) for m kept profiles besides their Delta calls: the boost
// mask and profile marks come from the pool's free list and only the
// entries set are cleared.
func (p *Pool[W, S]) estimateCount(boost []int32) (int64, error) {
	if len(p.profileSeed) == 0 {
		return 0, fmt.Errorf("%s: estimate on an empty pool (call Extend first)", p.name)
	}
	n := p.g.N()
	for _, v := range boost {
		if v < 0 || int(v) >= n {
			return 0, fmt.Errorf("%s: boost node %d out of range [0,%d)", p.name, v, n)
		}
	}
	// A panic out of Delta drops es instead of returning it half set.
	es := p.estFree.Get()
	mask, hit := es.size(n, len(p.profileSeed))
	// Dense boost list (deduplicated, sorted) for the per-profile pass.
	bset := es.bset[:0]
	for _, v := range boost {
		if !mask[v] {
			mask[v] = true
			bset = append(bset, v)
		}
	}
	slices.Sort(bset)
	// The affected profiles: the union of bset's frontier postings,
	// less the postings whose payload is quiet, sorted.
	profs := es.profs[:0]
	for _, v := range bset {
		lo, hi := p.idxStart[v], p.idxStart[v+1]
		var gate float64
		if p.quiet != nil {
			gate = p.quiet.Gate(v)
		}
		for k := lo; k < hi; k++ {
			pi := p.idxItems[k]
			if hit[pi] || p.quiet != nil && p.quiet.Quiet(p.profileSeed[pi], v, p.st.pay[p.st.frontStart[pi]+p.idxOff[k]], gate) {
				continue
			}
			hit[pi] = true
			profs = append(profs, pi)
		}
	}
	slices.Sort(profs)
	total := p.BaseSum() + p.sumDeltas(profs, bset, mask)
	for _, pi := range profs {
		hit[pi] = false
	}
	for _, v := range bset {
		mask[v] = false
	}
	es.bset, es.profs = bset, profs
	p.estFree.Put(es)
	return total, nil
}

// estScratch is estimateCount's working storage, recycled through the
// pool's free list. Between estimates mask (one entry per node) and hit
// (one per profile) are all false.
type estScratch struct {
	mask, hit   []bool
	bset, profs []int32
}

// size returns the mask for n nodes and the marks for r profiles,
// growing them when the pool has outgrown the scratch.
func (es *estScratch) size(n, r int) (mask, hit []bool) {
	if len(es.mask) < n {
		es.mask = make([]bool, n)
	}
	if len(es.hit) < r {
		es.hit = make([]bool, r)
	}
	return es.mask[:n], es.hit[:r]
}

// bytes returns the scratch's resident bytes, counted by capacity.
func (es *estScratch) bytes() int64 {
	return int64(cap(es.mask)+cap(es.hit)) + int64(cap(es.bset)+cap(es.profs))*4
}

// sumDeltas evaluates bset incrementally on each listed profile and
// returns the summed activation deltas, fanning out to the pool's
// workers for large batches. Deltas are integers summed in any
// order, so the result does not depend on the sharding.
func (p *Pool[W, S]) sumDeltas(profs []int32, bset []int32, mask []bool) int64 {
	if len(profs) < EstimateParallelMin || p.workers == 1 {
		return p.deltaRange(profs, bset, mask)
	}
	sums := make([]int64, p.workers)
	ForChunks(len(profs), p.workers, func(w, lo, hi int) {
		sums[w] = p.deltaRange(profs[lo:hi], bset, mask)
	})
	var total int64
	for _, v := range sums {
		total += v
	}
	return total
}

// deltaRange sums Delta over the listed profiles on one scratch.
func (p *Pool[W, S]) deltaRange(profs []int32, bset []int32, mask []bool) int64 {
	s := p.Scratch()
	defer p.PutScratch(s)
	var sum int64
	for _, pi := range profs {
		sum += int64(p.c.Delta(p.Profile(int(pi)), bset, mask, nil, s))
	}
	return sum
}
