package imm

import (
	"context"
	"testing"

	"github.com/kboost/kboost/internal/rng"
)

// validatableToy wraps toySketcher with coverage evaluation.
type validatableToy struct {
	*toySketcher
}

func (s validatableToy) CoverageOf(items []int32) int {
	hasBest, hasRest := false, false
	for _, v := range items {
		if v == 0 {
			hasBest = true
		}
		if v == 1 {
			hasRest = true
		}
	}
	count := 0
	for i := range s.best {
		if (hasBest && s.best[i]) || (hasRest && s.rest[i]) {
			count++
		}
	}
	return count
}

func newValidatableToy(n int, pBest, pRest float64, seed uint64) validatableToy {
	t := newToySketcher(n, pBest, pRest)
	t.r = rng.New(seed)
	return validatableToy{t}
}

func TestRunAdaptiveConverges(t *testing.T) {
	factory := func(seed uint64) (ValidatableSketcher, error) {
		return newValidatableToy(1000, 0.2, 0.01, seed), nil
	}
	trained, st, err := RunAdaptive(context.Background(), factory, Params{N: 1000, K: 1, Epsilon: 0.3, Ell: 1})
	if err != nil {
		t.Fatal(err)
	}
	if trained == nil || st.Samples == 0 {
		t.Fatal("no training pool")
	}
	// True OPT = 200; the validated estimate should be in the right
	// ballpark.
	if st.LB < 120 || st.LB > 280 {
		t.Fatalf("validated estimate %v far from OPT 200", st.LB)
	}
	items, _ := trained.SelectAndCover(1)
	if len(items) != 1 || items[0] != 0 {
		t.Fatalf("adaptive selection %v, want [0]", items)
	}
}

func TestRunAdaptiveHonorsCap(t *testing.T) {
	factory := func(seed uint64) (ValidatableSketcher, error) {
		return newValidatableToy(100000, 0.00001, 0.000005, seed), nil
	}
	_, st, err := RunAdaptive(context.Background(), factory, Params{N: 100000, K: 1, Epsilon: 0.5, Ell: 1, MaxSamples: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if !st.CapHit || st.Samples > 3000 {
		t.Fatalf("cap not honored: %+v", st)
	}
}

func TestRunAdaptiveChecked(t *testing.T) {
	if _, _, err := RunAdaptiveChecked(context.Background(), nil, Params{N: 10, K: 1}); err == nil {
		t.Fatal("nil factory accepted")
	}
}

func TestRunAdaptiveValidatesParams(t *testing.T) {
	factory := func(seed uint64) (ValidatableSketcher, error) {
		return newValidatableToy(10, 0.5, 0.1, seed), nil
	}
	if _, _, err := RunAdaptive(context.Background(), factory, Params{N: 10, K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
}
