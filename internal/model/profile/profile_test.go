package profile

import (
	"fmt"
	"testing"
)

// TestStoreAppendRange checks that bulk-appending profile runs between
// stores, as Extend's merge and Resample's splice do, reproduces each
// profile's sorted state and payload.
func TestStoreAppendRange(t *testing.T) {
	src := newStore[int32]()
	profiles := [][2][]int32{
		{{3, 1}, {4, 2}},
		{{0}, nil},
		{{5, 2, 7}, {1}},
	}
	for _, pr := range profiles {
		src.Add(pr[0], pr[1], func(v int32) int32 { return 10 * v })
	}
	dst := newStore[int32]()
	dst.appendRange(&src, 1, 3)
	dst.appendRange(&src, 0, 1)
	got := ""
	for i := 0; i < dst.profiles(); i++ {
		a0, a1 := dst.activeStart[i], dst.activeStart[i+1]
		f0, f1 := dst.frontStart[i], dst.frontStart[i+1]
		got += fmt.Sprint(dst.activeItems[a0:a1], dst.frontItems[f0:f1], dst.pay[f0:f1], ";")
	}
	if want := "[0] [] [];[2 5 7] [1] [10];[1 3] [2 4] [20 40];"; got != want {
		t.Fatalf("appended store %q, want %q", got, want)
	}
}
