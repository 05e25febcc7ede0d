// Package diffusion implements the influence boosting model of Lin, Chen
// and Lui (Definition 1): Independent Cascade diffusion where a boosted
// node v is influenced by a newly active in-neighbor u with probability
// p'(u,v) instead of p(u,v).
//
// The package provides single-run simulation, coupled base/boosted runs
// over a shared possible world (a large variance reduction when
// estimating the boost Δ_S(B) = σ_S(B) − σ_S(∅)), and parallel
// Monte-Carlo estimators.
package diffusion

import (
	"fmt"
	"math"
	"runtime"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/shard"
)

// Simulator runs boosted-IC diffusions on one graph. It owns scratch
// buffers sized to the graph, so repeated simulations allocate nothing
// once the largest world has been seen. A Simulator is not safe for
// concurrent use; create one per goroutine.
//
// PairOnce keeps the live edges of its current world as per-node runs:
// liveTo holds the targets of the live out-edges of every node its
// boosted pass expanded, node u's run being liveTo[liveLo[u]:liveHi[u]].
// That is 2n int32 of run bounds plus one world's live targets; the
// runs of nodes the current world did not expand are stale and never
// read.
type Simulator struct {
	g *graph.Graph

	mark  []int32 // per-node visit stamp
	epoch int32   // kboost:epoch

	queue []int32

	liveTo         []int32 // PairOnce: live targets of the expanded nodes, one run per node
	liveLo, liveHi []int32 // PairOnce: per-node run bounds in liveTo
	noBoost        []bool  // PairOnce: the all-false mask a nil boost reads
}

// NewSimulator returns a Simulator for g.
func NewSimulator(g *graph.Graph) *Simulator {
	return &Simulator{
		g:    g,
		mark: make([]int32, g.N()),
	}
}

// nextEpoch advances the visit stamp, clearing mark when the int32
// epoch would wrap, so a stamp from 2³¹ worlds ago can never read as
// current. Epochs stay positive: PairOnce's base pass stamps mark with
// the negated epoch.
// kboost:epoch-helper
func (s *Simulator) nextEpoch() int32 {
	if s.epoch == math.MaxInt32 {
		clear(s.mark)
		s.epoch = 0
	}
	s.epoch++
	return s.epoch
}

// b2i returns 1 for true and 0 for false; the compiler turns it into a
// flag set, not a branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// MaskFromSet returns an n-length boolean mask with mask[v]=true for
// each v in nodes.
func MaskFromSet(n int, nodes []int32) []bool {
	mask := make([]bool, n)
	for _, v := range nodes {
		mask[v] = true
	}
	return mask
}

// seedQueue stamps the distinct seeds with stamp and returns them as
// the initial BFS queue.
func seedQueue(queue, mark []int32, seeds []int32, stamp int32) []int32 {
	queue = queue[:0]
	for _, v := range seeds {
		if mark[v] != stamp {
			mark[v] = stamp
			queue = append(queue, v)
		}
	}
	return queue
}

// SpreadOnce runs one diffusion from seeds with boost mask (nil means no
// boosted nodes) and returns the number of activated nodes.
//
// Draw order: nodes are expanded in BFS order and each node's out-edges
// in CSR order. An edge to a node already active draws nothing; any
// other edge makes one r.Bernoulli call with p, or p' if its target is
// boosted, which draws nothing when that probability is 0 or 1.
func (s *Simulator) SpreadOnce(seeds []int32, boost []bool, r *rng.Source) int {
	g := s.g
	epoch := s.nextEpoch()
	mark := s.mark
	queue := seedQueue(s.queue, mark, seeds, epoch)
	s0, s1, s2, s3 := r.State()
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		to := g.OutTo(u)
		p := g.OutP(u)
		pb := g.OutPBoost(u)
		for i, v := range to {
			if mark[v] == epoch {
				continue
			}
			prob := p[i]
			if boost != nil && boost[v] {
				prob = pb[i]
			}
			if prob <= 0 {
				continue
			}
			if prob < 1 {
				var x uint64
				x, s0, s1, s2, s3 = rng.Step(s0, s1, s2, s3)
				if rng.Unit(x) >= prob {
					continue
				}
			}
			mark[v] = epoch
			queue = append(queue, v)
		}
	}
	r.SetState(s0, s1, s2, s3)
	s.queue = queue
	return len(queue)
}

// PairOnce samples one possible world (per-edge status live /
// live-upon-boost / blocked) and returns the spread without boosting and
// the spread with the given boost mask, both measured in that same
// world. Because the worlds are coupled, boosted-base is an unbiased,
// low-variance per-replicate estimate of the boost of influence.
//
// Draw order: the boosted pass expands nodes in BFS order and each
// node's out-edges in CSR order, and every such edge draws exactly one
// r.Float64 u — before, and regardless of, whether its target is
// already active — and is live if u < p, live-upon-boost if
// p <= u < p', blocked otherwise. The base pass draws nothing: it only
// follows the live edges the boosted pass recorded, which cover it
// because base activation is a subset of boosted activation.
//
// The boosted pass has no data-dependent branch per edge. For each
// expanded node it writes every target into the node's live run and
// into a candidate list just past the run's room, advancing the run by
// u < p and the list by u < p'; then it walks only the candidates,
// where a target is hit when it is live or boosted, writes it into the
// queue slot after the last and advances the queue by hit-and-new, so
// the queue needs n+1 slots. The base pass walks only the live runs.
// The first PairOnce on a Simulator allocates 2n int32 run bounds and,
// for a nil boost, an n-node all-false mask; liveTo grows to the
// largest world's live-target count plus twice one out-degree.
func (s *Simulator) PairOnce(seeds []int32, boost []bool, r *rng.Source) (base, boosted int) {
	g := s.g
	n := g.N()
	if s.liveLo == nil {
		bounds := make([]int32, 2*n)
		s.liveLo, s.liveHi = bounds[:n:n], bounds[n:]
	}
	if boost == nil {
		if s.noBoost == nil {
			s.noBoost = make([]bool, n)
		}
		boost = s.noBoost
	}
	if cap(s.queue) <= n {
		s.queue = make([]int32, 0, n+1)
	}
	epoch := s.nextEpoch()
	mark, liveLo, liveHi, liveTo := s.mark, s.liveLo, s.liveHi, s.liveTo

	// Pass 1: boosted world, recording each expanded node's live run.
	queue := seedQueue(s.queue, mark, seeds, epoch)
	tail := len(queue)
	queue = queue[:n+1]
	nl := 0
	s0, s1, s2, s3 := r.State()
	for qi := 0; qi < tail; qi++ {
		u := queue[qi]
		to := g.OutTo(u)
		p := g.OutP(u)[:len(to)]
		pb := g.OutPBoost(u)[:len(to)]
		if need := nl + 2*len(to); need > len(liveTo) {
			grown := make([]int32, max(need, 2*len(liveTo)))
			copy(grown, liveTo[:nl])
			liveTo = grown
		}
		cand := liveTo[nl+len(to) : nl+2*len(to)]
		liveLo[u] = int32(nl)
		nc := 0 // candidates: targets with u < p', bit 31 set when not live
		for i, v := range to {
			var x uint64
			x, s0, s1, s2, s3 = rng.Step(s0, s1, s2, s3)
			f := rng.Unit(x)
			live := b2i(f < p[i])
			liveTo[nl] = v
			nl += live
			cand[nc] = v | int32(1-live)<<31
			nc += b2i(f < pb[i])
		}
		liveHi[u] = int32(nl)
		// A candidate is hit when it is live or boosted.
		for _, c := range cand[:nc] {
			v := c & math.MaxInt32
			m := mark[v]
			fresh := (b2i(c >= 0) | b2i(boost[v])) & b2i(m != epoch)
			queue[tail] = v
			tail += fresh
			if fresh != 0 { // a conditional move, not a branch
				m = epoch
			}
			mark[v] = m
		}
	}
	r.SetState(s0, s1, s2, s3)
	boosted = tail

	// Pass 2: base world over the recorded live runs.
	queue = seedQueue(queue[:0], mark, seeds, -epoch)
	tail = len(queue)
	queue = queue[:n+1]
	for qi := 0; qi < tail; qi++ {
		u := queue[qi]
		for _, v := range liveTo[liveLo[u]:liveHi[u]] {
			fresh := b2i(mark[v] != -epoch)
			mark[v] = -epoch
			queue[tail] = v
			tail += fresh
		}
	}
	s.queue, s.liveTo = queue[:tail], liveTo
	return tail, boosted
}

// Options configures a Monte-Carlo estimation, under IC here and under
// boosted LT in package lt.
type Options struct {
	Sims    int    // number of simulations (default 10000)
	Seed    uint64 // RNG seed (default 1)
	Workers int    // parallel workers (default GOMAXPROCS, at most Sims)
}

// WithDefaults returns o with every unset field at its default.
func (o Options) WithDefaults() Options {
	if o.Sims <= 0 {
		o.Sims = 10000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers > o.Sims {
		o.Workers = o.Sims
	}
	return o
}

func validateNodes(g *graph.Graph, nodes []int32, what string) error {
	for _, v := range nodes {
		if v < 0 || int(v) >= g.N() {
			return fmt.Errorf("diffusion: %s node %d out of range [0,%d)", what, v, g.N())
		}
	}
	return nil
}

// EstimateSpread estimates σ_S(B): the expected number of nodes
// activated when seeding seeds and boosting the nodes in boost (which
// may be nil for the plain IC spread).
func EstimateSpread(g *graph.Graph, seeds, boost []int32, opt Options) (float64, error) {
	if err := validateNodes(g, seeds, "seed"); err != nil {
		return 0, err
	}
	if err := validateNodes(g, boost, "boost"); err != nil {
		return 0, err
	}
	opt = opt.WithDefaults()
	mask := MaskFromSet(g.N(), boost)
	total := parallelSum(g, opt, func(sim *Simulator, r *rng.Source) float64 {
		return float64(sim.SpreadOnce(seeds, mask, r))
	})
	return total / float64(opt.Sims), nil
}

// EstimateBoost estimates Δ_S(B) = σ_S(B) − σ_S(∅) using coupled
// possible worlds, which gives far lower variance than estimating the
// two spreads independently.
func EstimateBoost(g *graph.Graph, seeds, boost []int32, opt Options) (float64, error) {
	if err := validateNodes(g, seeds, "seed"); err != nil {
		return 0, err
	}
	if err := validateNodes(g, boost, "boost"); err != nil {
		return 0, err
	}
	opt = opt.WithDefaults()
	mask := MaskFromSet(g.N(), boost)
	total := parallelSum(g, opt, func(sim *Simulator, r *rng.Source) float64 {
		base, boosted := sim.PairOnce(seeds, mask, r)
		return float64(boosted - base)
	})
	return total / float64(opt.Sims), nil
}

// parallelSum runs opt.Sims replicates of one on the chunks of
// shard.Each, chunk w drawing from the w-th split of the root stream,
// and returns the sum. opt must have its defaults.
func parallelSum(g *graph.Graph, opt Options, one func(*Simulator, *rng.Source) float64) float64 {
	streams := Streams(opt)
	sums := make([]float64, len(streams))
	shard.Each(opt.Sims, opt.Workers, func(w, lo, hi int) {
		sim := NewSimulator(g)
		var sum float64
		for i := lo; i < hi; i++ {
			sum += one(sim, streams[w])
		}
		sums[w] = sum
	})
	var total float64
	for _, v := range sums {
		total += v
	}
	return total
}

// Streams returns the RNG stream of each of shard.Each's chunks of
// opt.Sims on opt.Workers, opt having its defaults: chunk w draws from
// the w-th split of rng.New(opt.Seed).
func Streams(opt Options) []*rng.Source {
	root := rng.New(opt.Seed)
	streams := make([]*rng.Source, opt.Workers)
	for w := range streams {
		streams[w] = root.Split()
	}
	return streams
}
