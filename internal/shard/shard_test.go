package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/kboost/kboost/internal/faults"
	"github.com/kboost/kboost/internal/panicsafe"
)

// TestEach pins the split rule: exactly min(n, workers) chunks,
// remainder-first, each index visited once.
func TestEach(t *testing.T) {
	pinned := map[[2]int][][2]int{
		{300, 8}: {{0, 38}, {38, 76}, {76, 114}, {114, 152}, {152, 189}, {189, 226}, {226, 263}, {263, 300}},
		{10, 4}:  {{0, 3}, {3, 6}, {6, 8}, {8, 10}},
		{3, 5}:   {{0, 1}, {1, 2}, {2, 3}},
		{17, 1}:  {{0, 17}},
		{17, 0}:  {{0, 17}},
		{-1, 4}:  {},
	}
	var cases [][2]int
	for key := range pinned {
		cases = append(cases, key)
	}
	for _, n := range []int{0, 1, 5, 16, 17, 100, 300} {
		for _, workers := range []int{1, 2, 3, 7, 8, 11, 32} {
			cases = append(cases, [2]int{n, workers})
		}
	}
	for _, key := range cases {
		n, workers := key[0], key[1]
		want, isPinned := pinned[key]
		k := max(min(n, max(workers, 1)), 0)
		got := make([][2]int, k)
		visits := make([]atomic.Int32, max(n, 0))
		var calls atomic.Int32
		Each(n, workers, func(w, lo, hi int) {
			calls.Add(1)
			got[w] = [2]int{lo, hi}
			for i := lo; i < hi; i++ {
				visits[i].Add(1)
			}
		})
		if int(calls.Load()) != k {
			t.Errorf("n=%d workers=%d: %d chunks, want %d", n, workers, calls.Load(), k)
			continue
		}
		lo := 0
		for w, c := range got {
			size := n / k
			if w < n%k {
				size++
			}
			if c != [2]int{lo, lo + size} {
				t.Errorf("n=%d workers=%d: chunk %d = %v, want [%d,%d)", n, workers, w, c, lo, lo+size)
			}
			lo += size
		}
		if isPinned && fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("n=%d workers=%d: chunks %v, want %v", n, workers, got, want)
		}
		for i := range visits {
			if v := visits[i].Load(); v != 1 {
				t.Errorf("n=%d workers=%d: index %d visited %d times", n, workers, i, v)
			}
		}
	}
}

// recovered runs f and returns the value it panicked with, or nil.
func recovered(f func()) (val any) {
	defer func() { val = recover() }()
	f()
	return nil
}

// TestEachPanic checks that a worker's panic reaches Each's caller as a
// *panicsafe.Error carrying the worker's stack, after every other chunk
// has finished, and that the lowest panicking chunk is the one
// reported. The inline single chunk behaves the same.
func TestEachPanic(t *testing.T) {
	for _, tc := range []struct {
		name       string
		n, workers int
		panics     []int // the chunks that panic, each with its index
		want       int
	}{
		{"one of several", 100, 4, []int{2}, 2},
		{"lowest wins", 100, 4, []int{3, 1}, 1},
		{"inline", 5, 1, []int{0}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var finished atomic.Int32
			val := recovered(func() {
				Each(tc.n, tc.workers, func(w, lo, hi int) {
					for _, p := range tc.panics {
						if w == p {
							panic(w)
						}
					}
					finished.Add(1)
				})
			})
			pe, ok := val.(*panicsafe.Error)
			if !ok {
				t.Fatalf("recovered %T %v, want *panicsafe.Error", val, val)
			}
			if pe.Val != tc.want {
				t.Errorf("panic value %v, want %d", pe.Val, tc.want)
			}
			if !bytes.Contains(pe.Stack, []byte("TestEachPanic")) {
				t.Errorf("stack does not show the panicking worker:\n%s", pe.Stack)
			}
			if got, want := int(finished.Load()), min(tc.n, tc.workers)-len(tc.panics); got != want {
				t.Errorf("%d chunks finished, want %d", got, want)
			}
		})
	}
}

// TestBuild drives Build's failure paths one by one: an injected fault
// at shard start, a panic, a sibling bailing on the stop flag, a cancel
// mid-shard, and a shard error winning over a ctx canceled after the
// last poll.
func TestBuild(t *testing.T) {
	t.Cleanup(faults.Reset)
	// run is one case's state: the build's cancel, the items each shard
	// ran, and a channel the cases that order two shards close.
	type run struct {
		cancel context.CancelFunc
		ran    []atomic.Int32 // items run per shard
		sync   chan struct{}
	}
	for _, tc := range []struct {
		name       string
		n, workers int
		fault      bool
		item       func(r *run, w, i int)
		check      func(t *testing.T, err error, ran []int)
	}{
		{
			name: "injected fault at shard start", n: 100, workers: 1, fault: true,
			item: func(*run, int, int) {},
			check: func(t *testing.T, err error, ran []int) {
				if !errors.Is(err, faults.ErrInjected) || ran[0] != 0 {
					t.Errorf("err %v after %d items, want ErrInjected after none", err, ran[0])
				}
			},
		},
		{
			name: "panic in one shard", n: 300, workers: 3,
			item: func(_ *run, w, i int) {
				if i == 150 {
					panic("boom")
				}
			},
			check: func(t *testing.T, err error, ran []int) {
				var pe *panicsafe.Error
				if !errors.As(err, &pe) || pe.Val != "boom" {
					t.Errorf("err %v, want the recovered panic", err)
				}
			},
		},
		{
			// Shard 1 starts once shard 0 is failing and bails at a poll:
			// after a whole number of strides, long before its chunk ends.
			name: "sibling bails on the stop flag", n: 2 << 20, workers: 2,
			item: func(r *run, w, i int) {
				if w == 0 {
					close(r.sync)
					panic("boom")
				}
				if i == 1<<20 {
					<-r.sync
				}
				runtime.Gosched()
			},
			check: func(t *testing.T, err error, ran []int) {
				var pe *panicsafe.Error
				if !errors.As(err, &pe) {
					t.Errorf("err %v, want the recovered panic", err)
				}
				if ran[1] == 1<<20 || ran[1]%cancelStride != 0 {
					t.Errorf("shard 1 ran %d items, want a stride multiple short of %d", ran[1], 1<<20)
				}
			},
		},
		{
			name: "cancel mid-shard", n: 1000, workers: 1,
			item: func(r *run, w, i int) {
				if i == 100 {
					r.cancel()
				}
			},
			check: func(t *testing.T, err error, ran []int) {
				if !errors.Is(err, context.Canceled) || ran[0] != 2*cancelStride {
					t.Errorf("err %v after %d items, want context.Canceled after %d", err, ran[0], 2*cancelStride)
				}
			},
		},
		{
			// Shard 0 cancels after its only poll, once shard 1 has passed
			// its own and is about to panic: no poll sees the cancel.
			name: "shard error wins over ctx.Err", n: 20, workers: 2,
			item: func(r *run, w, i int) {
				switch {
				case w == 1:
					close(r.sync)
					panic("boom")
				case i == 0:
					<-r.sync
					r.cancel()
				}
			},
			check: func(t *testing.T, err error, ran []int) {
				var pe *panicsafe.Error
				if !errors.As(err, &pe) {
					t.Errorf("err %v, want the recovered panic", err)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faults.Reset()
			if tc.fault {
				faults.Enable(faults.PoolBuildShard, faults.Fault{Mode: "error", Count: 1})
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			r := &run{cancel: cancel, ran: make([]atomic.Int32, tc.workers), sync: make(chan struct{})}
			err := Build(ctx, tc.n, tc.workers, func(w, i int) {
				r.ran[w].Add(1)
				tc.item(r, w, i)
			})
			ran := make([]int, tc.workers)
			for w := range ran {
				ran[w] = int(r.ran[w].Load())
			}
			tc.check(t, err, ran)
		})
	}
}
