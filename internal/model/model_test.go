package model

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

func TestNewRejectsBadParams(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Params
	}{
		{"sir", Params{Recovery: -0.1}},
		{"sir", Params{Recovery: 1.5}},
		{"sir", Params{Recovery: math.NaN()}},
		{"kthresh", Params{Threshold: -1}},
		{"lt", Params{Recovery: 0.5}},
		{"kthresh", Params{Recovery: 0.5}},
		{"lt", Params{Threshold: 2}},
		{"sir", Params{Threshold: 2}},
		{"ic", Params{}},
		{"", Params{}},
	} {
		if m, err := New(tc.name, tc.p); err == nil {
			t.Errorf("New(%q, %+v) = %v, want an error", tc.name, tc.p, m.Key())
		}
	}
}

func TestKeyDistinguishesParams(t *testing.T) {
	key := func(name string, p Params) string {
		t.Helper()
		m, err := New(name, p)
		if err != nil {
			t.Fatalf("New(%q, %+v): %v", name, p, err)
		}
		return m.Key()
	}
	// Zero knobs select each model's default, so they must share its
	// pools with the spelled-out default.
	if a, b := key("sir", Params{}), key("sir", Params{Recovery: 0.5}); a != b {
		t.Errorf("sir default keys differ: %q vs %q", a, b)
	}
	if a, b := key("kthresh", Params{}), key("kthresh", Params{Threshold: 2}); a != b {
		t.Errorf("kthresh default keys differ: %q vs %q", a, b)
	}
	seen := map[string]string{}
	for _, tc := range []struct {
		name string
		p    Params
	}{
		{"lt", Params{}},
		{"sir", Params{}},
		{"sir", Params{Recovery: 0.25}},
		{"sir", Params{Recovery: 1}},
		{"kthresh", Params{}},
		{"kthresh", Params{Threshold: 1}},
		{"kthresh", Params{Threshold: 3}},
	} {
		k := key(tc.name, tc.p)
		label := tc.name
		if prev, dup := seen[k]; dup {
			t.Errorf("key %q shared by %s and %s %+v", k, prev, label, tc.p)
		}
		seen[k] = label
	}
}

func TestNamesSortedAndResolvable(t *testing.T) {
	names := Names()
	if !slices.IsSorted(names) {
		t.Errorf("Names() = %v, not sorted", names)
	}
	for _, name := range names {
		m, err := New(name, Params{})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, m.Name())
		}
	}
}

// cancelAfterFirst is a context whose Err reports nil on its first call
// and context.Canceled on every later one.
type cancelAfterFirst struct {
	context.Context
	calls int
}

func (c *cancelAfterFirst) Err() error {
	if c.calls++; c.calls > 1 {
		return context.Canceled
	}
	return nil
}

// TestGreedyCancel checks that the kernel greedy stops on a context
// canceled after the selection started: both entry points return the
// context's error and no picks, for every pooled model. The same calls
// under a live context do pick, so the cancellation is what stops them.
func TestGreedyCancel(t *testing.T) {
	g := testutil.RandomGraph(rng.New(5), 40, 200, 0.6)
	seeds := []int32{0, 1, 2, 3, 4, 5}
	cands := testutil.NonSeeds(g.N(), seeds)
	for _, tc := range []struct {
		mode  string
		among bool
	}{
		{"lt", false}, {"lt", true},
		{"sir", false}, {"sir", true},
		{"kthresh", false}, {"kthresh", true},
	} {
		m, err := New(tc.mode, Params{})
		if err != nil {
			t.Fatal(err)
		}
		pool, err := m.NewPool(g, seeds, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.ExtendContext(context.Background(), 300); err != nil {
			t.Fatal(err)
		}
		run := func(ctx context.Context) ([]int32, error) {
			var picks []int32
			if tc.among {
				picks, _, err = pool.GreedyBoostAmongContext(ctx, 3, cands)
			} else {
				picks, _, err = pool.GreedyBoostContext(ctx, 3, len(cands))
			}
			return picks, err
		}
		if picks, err := run(context.Background()); err != nil || len(picks) == 0 {
			t.Fatalf("%s among=%v: live context picked %v, err %v", tc.mode, tc.among, picks, err)
		}
		picks, err := run(&cancelAfterFirst{Context: context.Background()})
		if !errors.Is(err, context.Canceled) || picks != nil {
			t.Errorf("%s among=%v: canceled greedy returned %v, err %v; want no picks and context.Canceled", tc.mode, tc.among, picks, err)
		}
	}
}
