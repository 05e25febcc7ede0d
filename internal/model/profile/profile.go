// Package profile is the profile-pool kernel shared by the pooled
// simulation models (internal/lt, model/sir, model/kthresh). A pool
// samples R possible worlds ("profiles") once, caches each profile's
// base world — the outcome under the empty boost set B = ∅ — and then
// evaluates boost sets incrementally from that cache: boosting only
// raises edge probabilities, so a boosted world's active set always
// contains the base world's, and a boost set can only change the
// profiles whose base frontier holds one of its nodes.
//
// The kernel owns everything that is layout or scheduling rather than
// dynamics: drawing profile seeds, the sharded Extend with rollback,
// the flat CSR storage and its in-order shard merge, the frontier
// inverted index, the estimates over merged posting lists, the lazy
// greedy selection, the tier-1 sample driver and the layout half of an
// in-place repair. A model supplies only its Cascade — the dynamics of
// one profile — which the kernel calls once per profile, never per
// edge.
//
// Every pool keeps the repo's hardening contract: contents are a pure
// function of (seed, graph, seed set) independent of worker count, and
// every estimate and selection is a sum of integers, bit-exact across
// worker counts.
package profile

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/kboost/kboost/internal/faults"
	"github.com/kboost/kboost/internal/freelist"
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/panicsafe"
	"github.com/kboost/kboost/internal/rng"
)

// Cascade is one diffusion model's dynamics over a single profile: a
// possible world fully determined by its profile seed. W is the
// per-frontier-node payload the model caches with a base world (lt's
// accumulated in-weight, kthresh's exposure counts, nothing for sir); S
// is the model's per-worker scratch. Every method leaves the scratch
// clean.
type Cascade[W, S any] interface {
	// NewScratch returns an empty scratch for the model's graph.
	NewScratch() S
	// Base runs the base world (B = ∅) of the profile seeded by ps and
	// appends its state to st with one Store.Add call: the active set,
	// and the frontier — every inactive node a boost could activate —
	// with one payload entry per frontier node.
	Base(ps uint64, st *Store[W], s S)
	// Delta returns the activations that boosting bset adds to profile
	// pr, evaluated incrementally from its cached base state; mask
	// marks bset's members and bset holds no duplicates. With a
	// non-nil gc (the greedy) it then reports, from the same boosted
	// state, every gc.Candidates() node's positive marginal gain — a
	// tentative cascade rolled back after each — and calls gc.Touch for
	// every push target, in the bset cascade and in each candidate's,
	// whose edge outcome depends on the target's boost status.
	Delta(pr Profile[W], bset []int32, mask []bool, gc *Gains, s S) int
	// Simulate runs the profile seeded by ps from scratch under the
	// boost mask (nil for none) and returns its active count.
	Simulate(ps uint64, mask []bool, s S) int
}

// Quieter is an optional Cascade extension that lets an estimate skip
// profiles a boost set cannot change. Delta decides whether each boost
// node activates from the base world alone, before any cascade runs, so
// a profile where every boost node in its frontier fails that test
// contributes exactly 0. Quiet may answer false when unsure, never true
// when the node could activate.
type Quieter[W any] interface {
	// Gate returns node v's constant for Quiet, derived from the graph;
	// an estimate computes it once per boost node.
	Gate(v int32) float64
	// Quiet reports that boosting v cannot activate v in the base
	// world of the profile seeded by ps, where v is a frontier node
	// with payload w, whatever else is boosted with it; gate is
	// Gate(v).
	Quiet(ps uint64, v int32, w W, gate float64) bool
}

// Profile is one profile's cached base world: views into the pool's
// flat arrays, valid until the next ExtendContext or Resample.
type Profile[W any] struct {
	Seed   uint64
	Active []int32 // sorted
	Front  []int32 // sorted
	Pay    []W     // Pay[j] belongs to Front[j]
}

// Store is a run of profiles' base worlds stored flat (CSR-style):
// profile i's active set is activeItems[activeStart[i]:activeStart[i+1]]
// and likewise for its frontier and payload. Offsets are int32: 2^31
// items would mean a pool of at least 8 GiB, far past the engine's byte
// budget. Extend shards and the pool itself share this layout, so a
// merge is a bulk append.
type Store[W any] struct {
	activeStart []int32
	activeItems []int32
	frontStart  []int32
	frontItems  []int32
	pay         []W
}

func newStore[W any]() Store[W] {
	return Store[W]{activeStart: []int32{0}, frontStart: []int32{0}}
}

// Add appends one profile's base world. active and front are copied
// and sorted in the store; pay(v) supplies each frontier node's
// payload, or nil leaves it zero.
func (st *Store[W]) Add(active, front []int32, pay func(v int32) W) {
	off := len(st.activeItems)
	st.activeItems = append(st.activeItems, active...)
	slices.Sort(st.activeItems[off:])
	st.activeStart = append(st.activeStart, int32(len(st.activeItems)))
	off = len(st.frontItems)
	st.frontItems = append(st.frontItems, front...)
	sorted := st.frontItems[off:]
	slices.Sort(sorted)
	var zero W
	for _, v := range sorted {
		w := zero
		if pay != nil {
			w = pay(v)
		}
		st.pay = append(st.pay, w)
	}
	st.frontStart = append(st.frontStart, int32(len(st.frontItems)))
}

// profiles returns the number of profiles in the store.
func (st *Store[W]) profiles() int { return len(st.activeStart) - 1 }

// appendRange bulk-appends profiles [lo, hi) of src, shifting their
// offsets.
func (st *Store[W]) appendRange(src *Store[W], lo, hi int) {
	a0, a1 := src.activeStart[lo], src.activeStart[hi]
	f0, f1 := src.frontStart[lo], src.frontStart[hi]
	da := int32(len(st.activeItems)) - a0
	df := int32(len(st.frontItems)) - f0
	st.activeItems = append(st.activeItems, src.activeItems[a0:a1]...)
	st.frontItems = append(st.frontItems, src.frontItems[f0:f1]...)
	st.pay = append(st.pay, src.pay[f0:f1]...)
	st.activeStart = appendShifted(st.activeStart, src.activeStart[lo+1:hi+1], da)
	st.frontStart = appendShifted(st.frontStart, src.frontStart[lo+1:hi+1], df)
}

// merge appends every profile of shards, in shard order, growing each
// array at most once, by grow: capacities, which MemoryEstimate counts,
// then depend on the merged totals alone, not on the worker count.
// Trailing workers get no profiles when there are fewer profiles than
// chunks; their shards stay zero-valued and are skipped.
func (st *Store[W]) merge(shards []Store[W]) {
	var profs, active, front int
	for w := range shards {
		if sh := &shards[w]; sh.activeStart != nil {
			profs += sh.profiles()
			active += len(sh.activeItems)
			front += len(sh.frontItems)
		}
	}
	st.activeStart = grow(st.activeStart, profs)
	st.frontStart = grow(st.frontStart, profs)
	st.activeItems = grow(st.activeItems, active)
	st.frontItems = grow(st.frontItems, front)
	st.pay = grow(st.pay, front)
	for w := range shards {
		if sh := &shards[w]; sh.activeStart != nil {
			st.appendRange(sh, 0, sh.profiles())
		}
	}
}

// grow returns s with room for add more elements: s itself when it has
// the room, else a copy with capacity max(len+add, 2·cap), so staged
// growth copies each element O(1) times amortized while the capacity
// stays a function of the lengths and capacities alone (append's also
// depends on the allocator's size classes).
func grow[T any](s []T, add int) []T {
	if cap(s)-len(s) >= add {
		return s
	}
	t := make([]T, len(s), max(len(s)+add, 2*cap(s)))
	copy(t, s)
	return t
}

// appendShifted appends ends to dst, each shifted by delta.
func appendShifted(dst, ends []int32, delta int32) []int32 {
	n := len(dst)
	dst = append(dst, ends...)
	for i := n; i < len(dst); i++ {
		dst[i] += delta
	}
	return dst
}

// cancelStride is the amortized cooperative-cancellation poll interval
// inside shard simulation loops: one ctx check per 64 profiles keeps
// the per-profile overhead at an untaken branch while bounding
// cancellation latency to a handful of cascade simulations.
const cancelStride = 64

// Pool is a growable collection of profiles for a fixed (graph, seed
// set). Profiles are independent of the boost budget k, so one pool
// serves every query against its seed set; only a larger simulation
// budget grows it (ExtendContext, in place). ExtendContext and
// Resample must be externally serialized against everything else; all
// other methods only read the pool and may run concurrently.
type Pool[W, S any] struct {
	name     string // the model's mode name, prefixing error messages
	c        Cascade[W, S]
	quiet    Quieter[W] // c's payload test, or nil when it has none
	g        *graph.Graph
	seeds    []int32 // sorted, deduplicated
	seedMask []bool
	workers  int
	root     *rng.Source

	// profileSeed[i] seeds profile i's world. Seeds are drawn serially
	// from root, so pool contents are independent of the worker count.
	profileSeed []uint64
	st          Store[W]

	// idxStart/idxItems: node -> ascending profiles whose base frontier
	// contains it. A boost set can only change the profiles where one
	// of its nodes sits in the base frontier, so estimates and greedy
	// rounds walk these posting lists instead of all R profiles. With a
	// Quieter, idxOff[k] is posting k's offset into its profile's
	// frontier and payload, and an estimate keeps only the profiles
	// where some boost node's payload fails the Quiet test; without one
	// idxOff is nil and estimates walk every posting.
	idxStart []int32
	idxItems []int32
	idxOff   []int32

	// generation counts the ExtendContext calls that added profiles and
	// the Resample calls; estimates and selections are pure functions
	// of the pool contents, so callers may cache results keyed by
	// (generation, query).
	generation uint64

	// rx is reindex's working memory, kept between repairs.
	rx reindexScratch

	scratch  sync.Pool // of S
	gains    sync.Pool // of *Gains, for the greedy's workers
	greedies sync.Pool // of *greedy[W, S], the selection state
	estFree  *freelist.List[estScratch]
}

// reindexScratch is reindex's node-sized working memory: mark has one
// entry per node and is all zero between calls, and changed lists the
// nodes whose posting lists the last repair changed. The touched
// profiles' postings are not kept: their size follows the delta, and a
// large repair would otherwise pin its peak until the pool is dropped.
type reindexScratch struct {
	mark, changed []int32
}

// bytes returns the scratch's resident bytes, counted by capacity.
func (rx *reindexScratch) bytes() int64 {
	return int64(cap(rx.mark)+cap(rx.changed)) * 4
}

// New creates an empty pool for (g, seeds) named after its model. seed
// determines every profile the pool will ever contain; workers <= 0
// means GOMAXPROCS. mk builds the model's cascade over the sorted,
// deduplicated seed set.
func New[W, S any](name string, g *graph.Graph, seeds []int32, seed uint64, workers int, mk func(seeds []int32) Cascade[W, S]) (*Pool[W, S], error) {
	for _, v := range seeds {
		if v < 0 || int(v) >= g.N() {
			return nil, fmt.Errorf("%s: seed %d out of range [0,%d)", name, v, g.N())
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool[W, S]{
		name:     name,
		g:        g,
		workers:  workers,
		root:     rng.New(seed),
		st:       newStore[W](),
		idxStart: make([]int32, g.N()+1),
		estFree:  freelist.New((*estScratch).bytes),
	}
	p.seeds, p.seedMask = dedupSeeds(g.N(), seeds)
	p.setCascade(mk(p.seeds))
	p.scratch.New = func() any { return p.c.NewScratch() }
	p.gains.New = func() any { return &Gains{stamp: make([]int32, g.N())} }
	p.greedies.New = func() any { return new(greedy[W, S]) }
	return p, nil
}

// setCascade installs the pool's dynamics and their payload test.
func (p *Pool[W, S]) setCascade(c Cascade[W, S]) {
	p.c = c
	p.quiet, _ = c.(Quieter[W])
}

// dedupSeeds returns the in-range seeds sorted and deduplicated, with
// their membership mask.
func dedupSeeds(n int, seeds []int32) ([]int32, []bool) {
	mask := make([]bool, n)
	var out []int32
	for _, v := range seeds {
		if !mask[v] {
			mask[v] = true
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out, mask
}

// NumProfiles returns the number of sampled profiles.
func (p *Pool[W, S]) NumProfiles() int { return len(p.profileSeed) }

// Generation identifies the pool's contents (see the generation field).
func (p *Pool[W, S]) Generation() uint64 { return p.generation }

// Graph returns the graph the pool samples from.
func (p *Pool[W, S]) Graph() *graph.Graph { return p.g }

// Workers returns the pool's worker count.
func (p *Pool[W, S]) Workers() int { return p.workers }

// Cascade returns the model dynamics the pool samples with.
func (p *Pool[W, S]) Cascade() Cascade[W, S] { return p.c }

// Seeds returns the pool's sorted, deduplicated seed set. The slice is
// owned by the pool; callers must not modify it. kboost:aliased-view
func (p *Pool[W, S]) Seeds() []int32 { return p.seeds }

// SeedMask returns the seed set's membership mask, indexed by node.
// The slice is owned by the pool; callers must not modify it.
// kboost:aliased-view
func (p *Pool[W, S]) SeedMask() []bool { return p.seedMask }

// Profile returns profile pi's cached base world. Its slices alias the
// pool's flat arrays: read them, never append to or write through them.
func (p *Pool[W, S]) Profile(pi int) Profile[W] {
	st := &p.st
	a0, a1 := st.activeStart[pi], st.activeStart[pi+1]
	f0, f1 := st.frontStart[pi], st.frontStart[pi+1]
	return Profile[W]{
		Seed:   p.profileSeed[pi],
		Active: st.activeItems[a0:a1],
		Front:  st.frontItems[f0:f1],
		Pay:    st.pay[f0:f1],
	}
}

// FrontierProfiles returns the ascending profiles whose base frontier
// contains v. kboost:aliased-view
func (p *Pool[W, S]) FrontierProfiles(v int32) []int32 {
	return p.idxItems[p.idxStart[v]:p.idxStart[v+1]]
}

// BaseSum returns Σ_i |active_i| over the base worlds: the integer
// numerator of the base spread.
func (p *Pool[W, S]) BaseSum() int64 { return int64(len(p.st.activeItems)) }

// BaseSpread returns the pooled estimate of the unboosted spread σ̂(∅),
// cached from the base worlds.
func (p *Pool[W, S]) BaseSpread() float64 {
	if len(p.profileSeed) == 0 {
		return 0
	}
	return float64(p.BaseSum()) / float64(len(p.profileSeed))
}

// MemoryEstimate returns the pool's resident bytes: the flat profile
// CSRs with their payload, the inverted index with its offsets, the
// profile seeds, the seed set, the repairs' index scratch and the
// estimates' idle scratch, each counted by capacity like prr.Pool's, so
// the engine's byte-based eviction compares every pool family fairly. The greedy's recycled
// state (scratch, gains, greedies) sits in sync.Pools, which cannot
// say what they hold, and is not counted.
func (p *Pool[W, S]) MemoryEstimate() int64 {
	var zero W
	st := &p.st
	bytes := int64(cap(st.activeItems)+cap(st.frontItems)+cap(p.idxItems)+cap(p.idxOff)) * 4
	bytes += int64(cap(st.pay)) * int64(unsafe.Sizeof(zero))
	bytes += int64(cap(p.profileSeed)) * 8
	bytes += int64(cap(st.activeStart)+cap(st.frontStart)+cap(p.idxStart)+cap(p.seeds)) * 4
	bytes += int64(cap(p.seedMask))
	return bytes + p.rx.bytes() + p.estFree.Bytes()
}

// Scratch takes a scratch from the pool's free list; return it with
// PutScratch.
func (p *Pool[W, S]) Scratch() S { return p.scratch.Get().(S) }

// PutScratch returns a clean scratch to the free list.
func (p *Pool[W, S]) PutScratch(s S) { p.scratch.Put(s) }

// ExtendContext grows the pool to at least target profiles. Growth is
// incremental: existing profiles and their cached base worlds are
// untouched, only the shortfall is simulated (sharded across the
// pool's workers, merged in profile order), and the frontier index is
// merged in one pass.
//
// On any error — ctx canceled, an injected faults.PoolBuildShard
// fault, or a shard-worker panic (returned as *panicsafe.Error) — no
// shard is merged and the pool rolls back to its exact pre-call state:
// the appended profile seeds are truncated and the root RNG restored,
// so a retried call draws the same seeds again and the final pool is
// bit-identical to one built without interruption.
func (p *Pool[W, S]) ExtendContext(ctx context.Context, target int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	from := len(p.profileSeed)
	need := target - from
	if need <= 0 {
		return nil
	}
	savedRoot, savedSeeds := *p.root, p.profileSeed // for rollback: the draws below advance root
	p.profileSeed = grow(p.profileSeed, need)
	for i := 0; i < need; i++ {
		p.profileSeed = append(p.profileSeed, p.root.Uint64())
	}
	shards := make([]Store[W], p.workers)
	errs := make([]error, p.workers)
	var stop atomic.Bool // flipped on first failure so sibling shards bail early
	ForChunks(need, p.workers, func(w, lo, hi int) {
		err := panicsafe.Do(func() {
			if e := faults.CheckContext(ctx, faults.PoolBuildShard); e != nil {
				errs[w] = e
				stop.Store(true)
				return
			}
			s := p.Scratch()
			defer p.PutScratch(s)
			shards[w] = newStore[W]()
			for i := lo; i < hi; i++ {
				if (i-lo)%cancelStride == 0 && (stop.Load() || ctx.Err() != nil) {
					errs[w] = ctx.Err()
					stop.Store(true)
					return
				}
				p.c.Base(p.profileSeed[from+i], &shards[w], s)
			}
		})
		if err != nil {
			errs[w] = err
			stop.Store(true)
		}
	})
	abort := ctx.Err()
	for _, err := range errs {
		if err != nil {
			abort = err
			break
		}
	}
	if abort != nil {
		p.profileSeed = savedSeeds
		*p.root = savedRoot
		return abort
	}
	p.st.merge(shards)
	p.index(from)
	p.generation++
	return nil
}

// index merges the frontier postings of profiles [from, R) into the
// inverted index, keeping the postings of profiles below from (none
// when from is 0: a full rebuild): count the new contribution per node,
// then interleave old and new posting lists in one O(old+new) pass.
// With a Quieter each posting's frontier offset moves along with it.
func (p *Pool[W, S]) index(from int) {
	n := p.g.N()
	counts := make([]int32, n)
	for _, v := range p.st.frontItems[p.st.frontStart[from]:] {
		counts[v]++
	}
	newStart := make([]int32, n+1)
	for v := 0; v < n; v++ {
		newStart[v+1] = newStart[v] + counts[v]
		if from > 0 {
			newStart[v+1] += p.idxStart[v+1] - p.idxStart[v]
		}
	}
	newItems := make([]int32, newStart[n])
	var newOff []int32
	if p.quiet != nil {
		newOff = make([]int32, newStart[n])
	}
	next := counts // reuse as per-node write cursors
	for v := 0; v < n; v++ {
		next[v] = newStart[v]
		if from > 0 {
			lo, hi := p.idxStart[v], p.idxStart[v+1]
			copy(newItems[newStart[v]:], p.idxItems[lo:hi])
			if newOff != nil {
				copy(newOff[newStart[v]:], p.idxOff[lo:hi])
			}
			next[v] += hi - lo
		}
	}
	fs, front := p.st.frontStart, p.st.frontItems
	for pi := from; pi < len(p.profileSeed); pi++ {
		lo := fs[pi]
		for j, v := range front[lo:fs[pi+1]] {
			k := next[v]
			next[v] = k + 1
			newItems[k] = int32(pi)
			if newOff != nil {
				newOff[k] = int32(j)
			}
		}
	}
	p.idxStart, p.idxItems, p.idxOff = newStart, newItems, newOff
}

// Resample is the layout half of an in-place repair: it moves the pool
// to graph g with dynamics c (same node count) and re-runs the base
// world of exactly the profiles marked in touched, copying every other
// profile's cached state. Profile seeds and the root RNG are untouched,
// so a repair that marks every profile whose base world could have
// changed leaves the pool bit-identical to a cold build on g. With no
// profile touched, the store and the index stay as they are: nothing is
// copied or allocated.
func (p *Pool[W, S]) Resample(g *graph.Graph, c Cascade[W, S], touched []bool) {
	p.g = g
	p.setCascade(c)
	p.generation++
	if !slices.Contains(touched, true) {
		return
	}
	R := len(p.profileSeed)

	// Workers re-simulate only their touched profiles into per-worker
	// shards. Untouched profiles are not staged anywhere: the assembly
	// below copies their cached segments straight out of the old
	// arrays, once — the repair path is memmove-bound.
	shards := make([]Store[W], p.workers)
	ForChunks(R, p.workers, func(w, lo, hi int) {
		s := p.Scratch()
		defer p.PutScratch(s)
		shards[w] = newStore[W]()
		for pi := lo; pi < hi; pi++ {
			if touched[pi] {
				c.Base(p.profileSeed[pi], &shards[w], s)
			}
		}
	})

	// Exact-size the new arrays: untouched segments keep their old
	// lengths, touched ones take their re-simulated shard lengths.
	prev := p.st
	old := &prev
	active, front := len(old.activeItems), len(old.frontItems)
	for pi, hit := range touched {
		if hit {
			active -= int(old.activeStart[pi+1] - old.activeStart[pi])
			front -= int(old.frontStart[pi+1] - old.frontStart[pi])
		}
	}
	for w := range shards {
		active += len(shards[w].activeItems)
		front += len(shards[w].frontItems)
	}
	st := Store[W]{
		activeStart: make([]int32, 1, R+1),
		activeItems: make([]int32, 0, active),
		frontStart:  make([]int32, 1, R+1),
		frontItems:  make([]int32, 0, front),
		pay:         make([]W, 0, front),
	}

	// Assemble in profile order. A maximal untouched run is contiguous
	// in the old arrays, so it moves as one bulk copy; touched profiles
	// come from the shards, which cover ascending profile ranges and
	// are consumed in order.
	w, k := 0, 0 // the next touched profile's shard and its index there
	for pi := 0; pi < R; {
		if !touched[pi] {
			j := pi
			for j < R && !touched[j] {
				j++
			}
			st.appendRange(old, pi, j)
			pi = j
			continue
		}
		for k == shards[w].profiles() {
			w, k = w+1, 0
		}
		st.appendRange(&shards[w], k, k+1)
		k++
		pi++
	}
	p.st = st
	p.reindex(old, touched)
}

// reindex rebuilds the frontier index after Resample replaced the store
// old, re-running the profiles marked in touched. Postings of untouched
// profiles keep their order in every node's list and their offsets,
// which count from the profile's own frontier start, so a list no
// touched profile enters or leaves is unchanged. Besides one shifted
// copy of idxStart and block copies of the unchanged lists, the cost
// follows the delta: the changed nodes are collected in first-seen
// order and only that list is sorted, the touched profiles' new
// postings are counting-scattered into the changed nodes' order, each
// run of unchanged lists between two changed nodes moves in one copy,
// and only the changed lists are merged by profile. index(0) would
// scatter every posting.
func (p *Pool[W, S]) reindex(old *Store[W], touched []bool) {
	n, st, rx := p.g.N(), &p.st, &p.rx
	mark := zeroed(&rx.mark, n)
	changed := rx.changed[:0]
	var dropped int32 // old postings of the touched profiles
	see := func(v int32) {
		if mark[v] == 0 {
			mark[v] = 1
			changed = append(changed, v)
		}
	}
	for pi, hit := range touched {
		if !hit {
			continue
		}
		f0, f1 := old.frontStart[pi], old.frontStart[pi+1]
		dropped += f1 - f0
		for _, v := range old.frontItems[f0:f1] {
			see(v)
		}
		for _, v := range st.frontItems[st.frontStart[pi]:st.frontStart[pi+1]] {
			see(v)
			mark[v]++
		}
	}
	slices.Sort(changed)

	// The touched profiles' new postings, by changed node in profile
	// order: mark[v]-1 counts v's, and then becomes the cursor of v's
	// run, which ends where the next changed node's begins.
	var added int32
	for _, v := range changed {
		c := mark[v] - 1
		mark[v] = added
		added += c
	}
	withOff := p.quiet != nil
	items := make([]int32, added)
	var off []int32
	if withOff {
		off = make([]int32, added)
	}
	for pi, hit := range touched {
		if !hit {
			continue
		}
		lo := st.frontStart[pi]
		for j, v := range st.frontItems[lo:st.frontStart[pi+1]] {
			k := mark[v]
			mark[v] = k + 1
			items[k] = int32(pi)
			if withOff {
				off[k] = int32(j)
			}
		}
	}

	size := int32(len(p.idxItems)) - dropped + added
	oldStart, oldItems, oldOff := p.idxStart, p.idxItems, p.idxOff
	newStart := make([]int32, 1, n+1)
	newItems := make([]int32, size)
	var newOff []int32
	if withOff {
		newOff = make([]int32, size)
	}
	var k, b int32 // write cursor; next touched posting
	next := 0      // first node not yet written
	for ci := 0; ; ci++ {
		v := n
		if ci < len(changed) {
			v = int(changed[ci])
		}
		// The unchanged lists of nodes [next, v) move in one block: they
		// are contiguous in both indexes.
		a, aEnd := oldStart[next], oldStart[v]
		newStart = appendShifted(newStart, oldStart[next+1:v+1], k-a)
		copy(newItems[k:], oldItems[a:aEnd])
		if withOff {
			copy(newOff[k:], oldOff[a:aEnd])
		}
		k += aEnd - a
		if v == n {
			break
		}
		// Merge v's old postings of untouched profiles with its touched
		// run, by profile.
		a, aEnd = oldStart[v], oldStart[v+1]
		for bEnd := mark[v]; ; b++ {
			end := int32(math.MaxInt32)
			if b < bEnd {
				end = items[b]
			}
			for ; a < aEnd && oldItems[a] < end; a++ {
				if pi := oldItems[a]; !touched[pi] {
					newItems[k] = pi
					if withOff {
						newOff[k] = oldOff[a]
					}
					k++
				}
			}
			if b == bEnd {
				break
			}
			newItems[k] = end
			if withOff {
				newOff[k] = off[b]
			}
			k++
		}
		newStart = append(newStart, k)
		mark[v] = 0
		next = v + 1
	}
	rx.changed = changed
	p.idxStart, p.idxItems, p.idxOff = newStart, newItems, newOff
}

// ForChunks splits [0, n) into at most workers contiguous chunks of
// ⌈n/workers⌉ items and runs fn(w, lo, hi) for each — chunk w covers
// [lo, hi) — concurrently, returning when all are done. A single chunk
// runs on the calling goroutine.
func ForChunks(n, workers int, fn func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	chunk := (n + workers - 1) / workers
	if chunk >= n {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w, lo := 0, 0; lo < n; w, lo = w+1, lo+chunk {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, min(lo+chunk, n))
	}
	wg.Wait()
}
