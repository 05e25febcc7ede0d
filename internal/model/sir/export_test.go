package sir

import (
	"context"
	"testing"

	"github.com/kboost/kboost/internal/model/profile/profiletest"
)

// estimateSpreadNaive and greedyBoostNaive are the shared
// full-resimulation references the incremental paths are held to.
func (p *Pool) estimateSpreadNaive(boost []int32) float64 {
	return profiletest.NaiveSpread(p.Pool, boost)
}

func (p *Pool) greedyBoostNaive(k, candCap int) ([]int32, float64, error) {
	return profiletest.NaiveGreedy(p.Pool, k, candCap)
}

// extend grows p to target profiles, failing the test on error.
func extend(tb testing.TB, p *Pool, target int) {
	tb.Helper()
	if err := p.ExtendContext(context.Background(), target); err != nil {
		tb.Fatal(err)
	}
}
