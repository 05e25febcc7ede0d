package lt

import "github.com/kboost/kboost/internal/model/profile/profiletest"

// estimateSpreadNaive and greedyBoostNaive are the shared
// full-resimulation references the incremental paths are held to.
func (p *Pool) estimateSpreadNaive(boost []int32) float64 {
	return profiletest.NaiveSpread(p.kernel, boost)
}

func (p *Pool) greedyBoostNaive(k, candCap int) ([]int32, float64, error) {
	return profiletest.NaiveGreedy(p.kernel, k, candCap)
}
