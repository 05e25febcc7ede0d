package model

import (
	"math"
	"slices"
	"testing"
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
