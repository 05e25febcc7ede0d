package model

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/kboost/kboost/internal/model/profile"
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

// TestPoolEstimateOnePass checks, for every pooled model and on both the
// serial and the sharded evaluation path, that Estimate's two values
// are what EstimateSpread and EstimateBoost return, bit for bit, with
// the same errors: Δ̂ is zero for no boost, a duplicated id counts
// once, a seed in the boost set changes nothing, and an out-of-range
// id fails all three. Both values must also come from one integer
// activation total over the R profiles: σ̂ = total/R and
// Δ̂ = (total − base total)/R.
func TestPoolEstimateOnePass(t *testing.T) {
	defer func(m int) { profile.EstimateParallelMin = m }(profile.EstimateParallelMin)
	g := testutil.RandomGraph(rng.New(8), 50, 260, 0.5)
	n := g.N()
	seeds := []int32{0, 1, 2, 3}
	boosts := [][]int32{
		nil, {},
		{10, 11, 12}, {12, 10, 11, 10, 12},
		{0, 10, 11, 12}, {3},
		{5, 17, 23, 31, 44, 49},
	}
	bits := math.Float64bits
	for _, mode := range Names() {
		m, err := New(mode, Params{})
		if err != nil {
			t.Fatal(err)
		}
		for _, parMin := range []int{256, 1} {
			profile.EstimateParallelMin = parMin
			pool, err := m.NewPool(g, seeds, 9, 3)
			if err != nil {
				t.Fatal(err)
			}
			if err := pool.ExtendContext(context.Background(), 400); err != nil {
				t.Fatal(err)
			}
			R := float64(pool.NumProfiles())
			base, _, err := pool.Estimate(nil)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string][2]float64{}
			var gained bool
			for _, boost := range boosts {
				label := fmt.Sprintf("%s parallel-min %d boost %v", mode, parMin, boost)
				spread, delta, err := pool.Estimate(boost)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				s, errS := pool.EstimateSpread(boost)
				d, errB := pool.EstimateBoost(boost)
				if errS != nil || errB != nil || bits(s) != bits(spread) || bits(d) != bits(delta) {
					t.Fatalf("%s: EstimateSpread/EstimateBoost = (%v, %v; %v, %v), Estimate = (%v, %v)", label, s, d, errS, errB, spread, delta)
				}
				if total := math.Round(spread * R); bits(total/R) != bits(spread) || bits((total-math.Round(base*R))/R) != bits(delta) {
					t.Fatalf("%s: σ̂ %v and Δ̂ %v over %v profiles are not one integer total against base %v", label, spread, delta, R, base)
				}
				if len(boost) == 0 && (bits(delta) != 0 || spread != base) {
					t.Fatalf("%s: empty boost gives (%v, %v), want (%v, 0)", label, spread, delta, base)
				}
				// The same set, however spelled, gives the same answer.
				set := slices.Clone(boost)
				slices.Sort(set)
				set = slices.DeleteFunc(slices.Compact(set), func(v int32) bool { return slices.Contains(seeds, v) })
				key := fmt.Sprint(set)
				if w, ok := want[key]; ok && (bits(w[0]) != bits(spread) || bits(w[1]) != bits(delta)) {
					t.Fatalf("%s: (%v, %v), but %v gave (%v, %v)", label, spread, delta, set, w[0], w[1])
				}
				want[key] = [2]float64{spread, delta}
				gained = gained || delta > 0
			}
			if !gained {
				t.Fatalf("%s: no boost set gained anything; the graph exercises nothing", mode)
			}
			for _, bad := range []int32{-1, int32(n)} {
				boost := []int32{10, bad}
				spread, delta, err := pool.Estimate(boost)
				_, errS := pool.EstimateSpread(boost)
				_, errB := pool.EstimateBoost(boost)
				if err == nil || spread != 0 || delta != 0 || errS == nil || errB == nil || errS.Error() != err.Error() || errB.Error() != err.Error() {
					t.Fatalf("%s: out-of-range %d: Estimate = (%v, %v, %v), EstimateSpread err %v, EstimateBoost err %v", mode, bad, spread, delta, err, errS, errB)
				}
			}
		}
	}
}
