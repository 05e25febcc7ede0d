// Package imm implements the sampling phase of the IMM framework
// ("Influence Maximization in Near-Linear Time: A Martingale Approach",
// Tang, Shi, Xiao — SIGMOD 2015), generalized over the sketch type.
//
// IMM estimates a monotone submodular objective F(S) = N * E[sketch is
// covered by S] by generating just enough random sketches that the
// greedy maximizer of empirical coverage is a (1-1/e-ε)-approximation
// with probability at least 1 - N^-ℓ. kboost instantiates it twice:
// with reverse-reachable sets for classic influence maximization
// (internal/rrset), and with PRR-graph critical-node sets for the
// submodular lower bound μ of the boost objective (internal/core), as
// described in Section V-B of the paper (Lemma 3).
package imm

import (
	"context"
	"fmt"
	"math"
)

// Sketcher abstracts a growable pool of random sketches with greedy
// max-coverage selection over the current pool.
type Sketcher interface {
	// ExtendContext grows the pool to at least target sketches, aborting
	// with ctx.Err() — merging nothing — if ctx is canceled first.
	ExtendContext(ctx context.Context, target int) error
	// Size returns the current number of sketches, including "empty"
	// sketches that no item can cover (their count matters: estimates
	// are normalized by the total pool size).
	Size() int
	// SelectAndCover greedily chooses up to k items and returns them with
	// the number of covered sketches.
	SelectAndCover(k int) (items []int32, covered int)
}

// Params configures a run.
type Params struct {
	N          int     // number of nodes in the graph (universe for the union bound)
	K          int     // cardinality constraint
	Epsilon    float64 // approximation slack ε (default 0.5)
	Ell        float64 // failure exponent ℓ: success with probability 1-1/N^ℓ (default 1)
	MaxSamples int     // optional hard cap on pool size (0 = theory-driven only)
}

func (p Params) withDefaults() Params {
	if p.Epsilon <= 0 {
		p.Epsilon = 0.5
	}
	if p.Ell <= 0 {
		p.Ell = 1
	}
	return p
}

// Validate returns the error RunContext would return for p before it
// samples anything.
func (p Params) Validate() error { return p.withDefaults().validate() }

func (p Params) validate() error {
	if p.N < 2 {
		return fmt.Errorf("imm: need N >= 2, got %d", p.N)
	}
	if p.K < 1 || p.K > p.N {
		return fmt.Errorf("imm: need 1 <= K <= N, got K=%d N=%d", p.K, p.N)
	}
	if p.Epsilon >= 1 {
		return fmt.Errorf("imm: need Epsilon < 1, got %v", p.Epsilon)
	}
	return nil
}

// Stats reports what the sampling phase did.
type Stats struct {
	Samples  int     // final pool size
	LB       float64 // lower bound on OPT established by the doubling phase
	Theta    float64 // theoretical sample target λ*/LB
	Rounds   int     // doubling rounds executed
	CapHit   bool    // true if MaxSamples cut sampling short
	Coverage int     // covered sketches in the last doubling-round selection
}

// lnChoose returns ln(n choose k) via log-gamma.
func lnChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	ln1, _ := math.Lgamma(float64(n + 1))
	ln2, _ := math.Lgamma(float64(k + 1))
	ln3, _ := math.Lgamma(float64(n - k + 1))
	return ln1 - ln2 - ln3
}

// RunContext executes the IMM sampling phase: it grows the sketch pool
// until the pool size reaches θ = λ*/LB, where LB is a high-confidence
// lower bound on OPT found by geometric search. After it returns, the
// caller performs the final selection on the same pool. ctx is threaded
// into every ExtendContext, so a canceled caller stops within a few
// sketches rather than after the full sampling phase; on cancellation
// the pool may hold sketches from completed rounds but never a partial
// Extend.
func RunContext(ctx context.Context, s Sketcher, p Params) (Stats, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return Stats{}, err
	}
	n := float64(p.N)
	lnN := math.Log(n)
	lnCnk := lnChoose(p.N, p.K)

	epsPrime := math.Sqrt2 * p.Epsilon
	lnLog2N := math.Log(math.Max(math.Log2(n), 2))
	lambdaPrime := (2 + 2*epsPrime/3) * (lnCnk + p.Ell*lnN + lnLog2N) * n / (epsPrime * epsPrime)

	alpha := math.Sqrt(p.Ell*lnN + math.Ln2)
	beta := math.Sqrt((1 - 1/math.E) * (lnCnk + p.Ell*lnN + math.Ln2))
	lambdaStar := 2 * n * sq((1-1/math.E)*alpha+beta) / (p.Epsilon * p.Epsilon)

	st := Stats{LB: 1}
	maxRounds := int(math.Ceil(math.Log2(n))) - 1
	if maxRounds < 1 {
		maxRounds = 1
	}
	for i := 1; i <= maxRounds; i++ {
		st.Rounds = i
		x := n / math.Pow(2, float64(i))
		thetaI := int(math.Ceil(lambdaPrime / x))
		if p.MaxSamples > 0 && thetaI > p.MaxSamples {
			thetaI = p.MaxSamples
			st.CapHit = true
		}
		if err := s.ExtendContext(ctx, thetaI); err != nil {
			return Stats{}, err
		}
		_, covered := s.SelectAndCover(p.K)
		st.Coverage = covered
		est := n * float64(covered) / float64(s.Size())
		if est >= (1+epsPrime)*x {
			st.LB = est / (1 + epsPrime)
			break
		}
		if st.CapHit {
			break
		}
	}

	st.Theta = lambdaStar / st.LB
	target := int(math.Ceil(st.Theta))
	if p.MaxSamples > 0 && target > p.MaxSamples {
		target = p.MaxSamples
		st.CapHit = true
	}
	if err := s.ExtendContext(ctx, target); err != nil {
		return Stats{}, err
	}
	st.Samples = s.Size()
	return st, nil
}

func sq(x float64) float64 { return x * x }

// EllForSandwich adjusts ℓ so that three union-bounded events (sampling,
// μ-selection, sandwich comparison) jointly succeed with probability
// 1 - 1/n^ell, per Algorithm 2 line 1 of the paper:
// ℓ' = ℓ * (1 + ln 3 / ln n).
func EllForSandwich(ell float64, n int) float64 {
	if n < 2 {
		return ell
	}
	return ell * (1 + math.Log(3)/math.Log(float64(n)))
}
