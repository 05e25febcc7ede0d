package imm

import (
	"context"
	"math"
	"testing"

	"github.com/kboost/kboost/internal/rng"
)

func TestLnChoose(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 2, math.Log(10)},
		{10, 0, 0},
		{10, 10, 0},
		{10, 1, math.Log(10)},
		{52, 5, math.Log(2598960)},
	}
	for _, c := range cases {
		if got := lnChoose(c.n, c.k); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("lnChoose(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
	if got := lnChoose(5, 7); !math.IsInf(got, -1) {
		t.Errorf("lnChoose(5,7) = %v, want -inf", got)
	}
}

func TestParamsValidation(t *testing.T) {
	s := newToySketcher(100, 0.5, 1)
	bad := []Params{
		{N: 1, K: 1},
		{N: 10, K: 0},
		{N: 10, K: 11},
		{N: 10, K: 1, Epsilon: 1.5},
	}
	for _, p := range bad {
		if _, err := RunContext(context.Background(), s, p); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
}

// toySketcher models a universe where item 0 covers each sketch with
// probability pBest and every other item with probability pRest. The
// "true OPT" for k=1 is n*pBest.
type toySketcher struct {
	n     int
	pBest float64
	pRest float64
	r     *rng.Source
	// sketch i covered by best item? by rest item i%n?
	best []bool
	rest []bool
}

func newToySketcher(n int, pBest, pRest float64) *toySketcher {
	return &toySketcher{n: n, pBest: pBest, pRest: pRest, r: rng.New(9)}
}

func (s *toySketcher) Extend(target int) {
	for len(s.best) < target {
		s.best = append(s.best, s.r.Bernoulli(s.pBest))
		s.rest = append(s.rest, s.r.Bernoulli(s.pRest))
	}
}
func (s *toySketcher) ExtendContext(ctx context.Context, target int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.Extend(target)
	return nil
}
func (s *toySketcher) Size() int { return len(s.best) }
func (s *toySketcher) SelectAndCover(k int) ([]int32, int) {
	// Item 0 covers best sketches; item 1 covers rest sketches.
	nb, nr := 0, 0
	for i := range s.best {
		if s.best[i] {
			nb++
		}
		if s.rest[i] {
			nr++
		}
	}
	if k == 1 {
		if nb >= nr {
			return []int32{0}, nb
		}
		return []int32{1}, nr
	}
	union := 0
	for i := range s.best {
		if s.best[i] || s.rest[i] {
			union++
		}
	}
	return []int32{0, 1}, union
}

func TestRunEstablishesLB(t *testing.T) {
	s := newToySketcher(1000, 0.2, 0.01)
	st, err := RunContext(context.Background(), s, Params{N: 1000, K: 1, Epsilon: 0.3, Ell: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Samples == 0 {
		t.Fatal("no samples generated")
	}
	// True OPT = 1000*0.2 = 200. LB must be below OPT (it is a lower
	// bound) and the doubling search should get within a factor ~4.
	if st.LB > 220 {
		t.Fatalf("LB %v exceeds OPT", st.LB)
	}
	if st.LB < 40 {
		t.Fatalf("LB %v too loose", st.LB)
	}
	if st.Samples < int(st.Theta) {
		t.Fatalf("samples %d below theta %v", st.Samples, st.Theta)
	}
}

func TestRunHonorsMaxSamples(t *testing.T) {
	s := newToySketcher(100000, 0.0001, 0.00005)
	st, err := RunContext(context.Background(), s, Params{N: 100000, K: 1, Epsilon: 0.5, Ell: 1, MaxSamples: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if st.Samples > 5000 {
		t.Fatalf("samples %d exceed cap", st.Samples)
	}
	if !st.CapHit {
		t.Fatal("CapHit not reported")
	}
}

func TestEllForSandwich(t *testing.T) {
	got := EllForSandwich(1, 1000)
	want := 1 * (1 + math.Log(3)/math.Log(1000))
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("EllForSandwich = %v, want %v", got, want)
	}
	if EllForSandwich(2, 1) != 2 {
		t.Fatal("degenerate n should return ell unchanged")
	}
}

func TestDefaults(t *testing.T) {
	p := Params{N: 100, K: 2}.withDefaults()
	if p.Epsilon != 0.5 || p.Ell != 1 {
		t.Fatalf("defaults %+v", p)
	}
}
