package lt

import (
	"math"
	"testing"

	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// TestTouchEpochWrap forces the evalScratch touch stamp across its
// int32 wrap mid-pool and checks that frontier extraction (the stamp's
// dedup consumer) still yields the same pool state: a stale stamp
// surviving the wrap would drop frontier nodes and corrupt warm
// evaluation.
func TestTouchEpochWrap(t *testing.T) {
	r := rng.New(41)
	g := testutil.RandomGraph(r, 30, 120, 0.5)
	build := func(preWrap bool) *Pool {
		pool, err := NewPool(g, []int32{0, 1}, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		if preWrap {
			// Push the pooled scratch to the brink: the next bump lands on
			// MaxInt32 and the one after wraps while profiles still extend.
			s := pool.kernel.Scratch()
			s.tepoch = math.MaxInt32 - 1
			pool.kernel.PutScratch(s)
		}
		pool.Extend(300)
		return pool
	}
	want := build(false)
	got := build(true)
	if want.BaseSpread() != got.BaseSpread() {
		t.Fatalf("BaseSpread diverged across wrap: %v vs %v", got.BaseSpread(), want.BaseSpread())
	}
	wantEst, err := want.EstimateSpread([]int32{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	gotEst, err := got.EstimateSpread([]int32{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if wantEst != gotEst {
		t.Fatalf("EstimateSpread diverged across wrap: %v vs %v", gotEst, wantEst)
	}
}
