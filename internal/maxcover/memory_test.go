package maxcover

import (
	"testing"

	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// TestMemoryBytesCountsCapacity pins MemoryBytes to the summed cap()s
// of everything the index retains: the sketch CSR, every posting list
// (5,000 two-item sets over 1,000 items leave posting capacity well
// above posting length), the stamp arrays and the idle Select scratch.
// The engine's -max-pool-mb budget rests on this number.
func TestMemoryBytesCountsCapacity(t *testing.T) {
	r := rng.New(5)
	c := New(1000)
	fill := func() {
		for s := 0; s < 5000; s++ {
			c.AddSet([]int32{int32(r.Intn(1000)), int32(r.Intn(1000))})
		}
	}
	check := func(when string) {
		t.Helper()
		if got, want := c.MemoryBytes(), testutil.RetainedBytes(c); got != want {
			t.Fatalf("%s: MemoryBytes = %d, summed capacities = %d", when, got, want)
		}
	}
	fill()
	check("after adds")
	c.CoverageOf([]int32{1, 2, 3})
	check("after CoverageOf")
	if chosen, _ := c.Select(10, nil, []int32{4}); len(chosen) != 10 {
		t.Fatalf("Select picked %v", chosen)
	}
	check("after Select")
	c.Reset()
	check("after Reset")
	fill()
	check("after refill")
}
