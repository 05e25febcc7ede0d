package imm

import (
	"context"
	"fmt"
	"math"
)

// RunAdaptive is a stop-and-stare style alternative to RunContext,
// after the SSA/D-SSA line of work the paper cites as interchangeable
// with IMM ("other similar frameworks based on RR-sets (e.g.,
// SSA/D-SSA) could also be applied", Section IV-A).
//
// Instead of deriving a sample count from a lower bound on OPT, it
// doubles a training pool, greedily selects on it, and *stares*:
// an independent validation pool re-estimates the selected set's value.
// Sampling stops once (a) the validation pool covers at least Λ
// sketches of the selected set (variance control) and (b) training and
// validation estimates agree within ε/2 (overfitting control).
//
// This implementation keeps SSA's structure but not its exact constant
// bookkeeping; use RunContext when the formal (1−1/e−ε) certificate
// matters. In practice it needs considerably fewer sketches on easy
// instances — see BenchmarkAblationSampler. ctx is threaded into every
// ExtendContext, so cancellation stops it within a few sketches.
func RunAdaptive(ctx context.Context, newSketcher func(seed uint64) (ValidatableSketcher, error), p Params) (ValidatableSketcher, Stats, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, Stats{}, err
	}
	n := float64(p.N)
	lnN := math.Log(n)
	lnCnk := lnChoose(p.N, p.K)

	// Λ: the covered-count threshold that bounds the relative error of a
	// coverage estimate at ε/2 with the usual union bound.
	lambda := (8 + 2*p.Epsilon) * (lnCnk + p.Ell*lnN + math.Ln2) / (p.Epsilon * p.Epsilon)
	if lambda < 32 {
		lambda = 32
	}

	train, err := newSketcher(101)
	if err != nil {
		return nil, Stats{}, err
	}
	valid, err := newSketcher(202)
	if err != nil {
		return nil, Stats{}, err
	}

	st := Stats{Theta: lambda}
	target := 512
	for {
		st.Rounds++
		if p.MaxSamples > 0 && target > p.MaxSamples {
			target = p.MaxSamples
			st.CapHit = true
		}
		if err := train.ExtendContext(ctx, target); err != nil {
			return nil, Stats{}, err
		}
		if err := valid.ExtendContext(ctx, target); err != nil {
			return nil, Stats{}, err
		}

		items, covTrain := train.SelectAndCover(p.K)
		covValid := valid.CoverageOf(items)
		st.Coverage = covValid

		estTrain := n * float64(covTrain) / float64(train.Size())
		estValid := n * float64(covValid) / float64(valid.Size())
		st.LB = estValid
		st.Samples = train.Size()

		enough := float64(covValid) >= lambda
		agree := estValid > 0 && math.Abs(estTrain-estValid) <= (p.Epsilon/2)*estValid
		if (enough && agree) || st.CapHit {
			return train, st, nil
		}
		target *= 2
	}
}

// ValidatableSketcher extends Sketcher with coverage evaluation of an
// externally chosen item set, needed for the stare (validation) step.
type ValidatableSketcher interface {
	Sketcher
	// CoverageOf returns how many of this pool's sketches the items
	// cover.
	CoverageOf(items []int32) int
}

// ensure the error type for missing factories is informative.
var errNilFactory = fmt.Errorf("imm: nil sketcher factory")

// RunAdaptiveChecked guards against nil factories (convenience for
// callers plumbing optional configuration).
func RunAdaptiveChecked(ctx context.Context, newSketcher func(seed uint64) (ValidatableSketcher, error), p Params) (ValidatableSketcher, Stats, error) {
	if newSketcher == nil {
		return nil, Stats{}, errNilFactory
	}
	return RunAdaptive(ctx, newSketcher, p)
}
