package profile

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestForChunks pins the fork-join helper's contract: every index in
// [0, n) is visited exactly once, chunk w covers [w·c, min((w+1)·c, n))
// with c = ⌈n/workers⌉, and no more than workers chunks run.
func TestForChunks(t *testing.T) {
	for _, n := range []int{0, 1, 5, 16, 17, 100} {
		for _, workers := range []int{1, 2, 3, 7, 32} {
			visits := make([]atomic.Int32, n)
			var chunks atomic.Int32
			c := (n + workers - 1) / workers
			ForChunks(n, workers, func(w, lo, hi int) {
				chunks.Add(1)
				if lo != w*c || hi != min(lo+c, n) || lo >= hi {
					t.Errorf("n=%d workers=%d: chunk %d = [%d,%d)", n, workers, w, lo, hi)
				}
				for i := lo; i < hi; i++ {
					visits[i].Add(1)
				}
			})
			for i := range visits {
				if v := visits[i].Load(); v != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, v)
				}
			}
			if int(chunks.Load()) > workers {
				t.Fatalf("n=%d workers=%d: %d chunks", n, workers, chunks.Load())
			}
		}
	}
}

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
