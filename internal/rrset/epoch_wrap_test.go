package rrset

import (
	"fmt"
	"math"
	"testing"

	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// TestWalkerEpochWrap forces a walker's int32 epoch stamp to wrap after
// it has left stamps 1..5 in mark, and checks that every RR-set across
// the wrap equals a fresh walker's on the same stream.
func TestWalkerEpochWrap(t *testing.T) {
	g := testutil.EdgeCaseGraph(rng.New(17), 40, 160, 0.3)
	primed, fresh := newWalker(g.N()), newWalker(g.N())
	warm := rng.New(99)
	for i := 0; i < 5; i++ {
		generate(g, int32(warm.Intn(g.N())), primed, nil, warm)
	}
	primed.epoch = math.MaxInt32 - 1 // the second set below wraps
	rp, rf := rng.New(3), rng.New(3)
	for i := 0; i < 8; i++ {
		root := int32(rp.Intn(g.N()))
		rf.Intn(g.N())
		got := generate(g, root, primed, nil, rp)
		want := generate(g, root, fresh, nil, rf)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("set %d across the wrap: %v, want %v (epoch=%d)", i, got, want, primed.epoch)
		}
	}
	if primed.epoch <= 0 || primed.epoch > 10 {
		t.Fatalf("epoch did not wrap to a small positive stamp: %d", primed.epoch)
	}
}
