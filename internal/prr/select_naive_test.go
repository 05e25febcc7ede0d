package prr

import (
	"fmt"
	"sync"
)

// selectDeltaNaive is the original from-scratch implementation: it
// rebuilds the inverted index and every candidate set per call and does
// an O(n) scan per pick. Kept unexported as the behavioral reference —
// the equivalence property test and BenchmarkSelectDeltaWarm run it
// against selectDelta.
func (p *Pool) selectDeltaNaive(k int) ([]int32, int, error) {
	if p.mode != ModeFull {
		return nil, 0, fmt.Errorf("prr: Δ̂ selection requires ModeFull")
	}
	n := p.g.N()
	numGraphs := p.arena.numGraphs()
	mask := make([]bool, n)
	covered := make([]bool, numGraphs)
	gain := make([]int32, n)
	cands := make([][]int32, numGraphs)

	// Inverted index: original node -> PRR-graphs containing it.
	postings := make([][]int32, n)
	for gi := 0; gi < numGraphs; gi++ {
		R := p.arena.at(gi)
		for _, v := range R.Nodes() {
			postings[v] = append(postings[v], int32(gi))
		}
	}

	// Initial candidate sets, computed in parallel.
	var wg sync.WaitGroup
	chunk := (numGraphs + p.workers - 1) / p.workers
	for w := 0; w < p.workers; w++ {
		lo := w * chunk
		if lo >= numGraphs {
			break
		}
		hi := lo + chunk
		if hi > numGraphs {
			hi = numGraphs
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			s := NewScratch()
			for gi := lo; gi < hi; gi++ {
				R := p.arena.at(gi)
				cov, cs := R.Candidates(mask, s)
				if cov {
					covered[gi] = true // cannot happen for boostable graphs with B=∅
					continue
				}
				cands[gi] = append([]int32(nil), cs...)
			}
		}(lo, hi)
	}
	wg.Wait()
	coveredCount := 0
	for gi := 0; gi < numGraphs; gi++ {
		if covered[gi] {
			coveredCount++
		}
		for _, v := range cands[gi] {
			gain[v]++
		}
	}

	scratch := NewScratch()
	var chosen []int32
	for len(chosen) < k {
		best := int32(-1)
		var bestGain int32
		for v := int32(0); int(v) < n; v++ {
			if mask[v] || p.seedMask[v] {
				continue
			}
			if gain[v] > bestGain {
				best, bestGain = v, gain[v]
			}
		}
		if best < 0 || bestGain == 0 {
			break
		}
		chosen = append(chosen, best)
		mask[best] = true
		for _, gi := range postings[best] {
			if covered[gi] {
				continue
			}
			for _, v := range cands[gi] {
				gain[v]--
			}
			R := p.arena.at(int(gi))
			cov, cs := R.Candidates(mask, scratch)
			if cov {
				covered[gi] = true
				coveredCount++
				cands[gi] = nil
				continue
			}
			cands[gi] = append(cands[gi][:0], cs...)
			for _, v := range cands[gi] {
				gain[v]++
			}
		}
	}
	return chosen, coveredCount, nil
}
