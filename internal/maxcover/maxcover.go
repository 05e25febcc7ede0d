// Package maxcover implements greedy weighted maximum coverage with
// lazy (CELF-style) evaluation.
//
// The universe of "sets" are sketches (RR-sets or PRR-graph critical
// node sets); the pickable items are graph nodes. Greedy max coverage
// over submodular coverage functions yields the classic (1-1/e)
// guarantee, which the IMM machinery converts into an end-to-end
// approximation bound.
package maxcover

import (
	"math"
	"sync"
	"unsafe"

	"github.com/kboost/kboost/internal/freelist"
)

// Coverage is an incremental max-coverage instance. Add sketches with
// AddSet (or AddSortedSet), then call Select (repeatedly, as the pool
// grows). Adds must be externally serialized against every other
// method; CoverageOf and Select are safe to call concurrently with each
// other.
//
// Sketch item lists are stored flat (CSR-style): one offset array plus
// one item array, so steady-state adds cost zero allocations beyond
// amortized array growth — the layout the PRR pool arenas feed
// shard-by-shard on every Extend.
type Coverage struct {
	numItems int
	setStart []int32   // sketch id -> offset into setItems; len = NumSets()+1
	setItems []int32   // concatenated deduplicated item lists
	postings [][]int32 // item -> sketch ids containing it
	// postingsCap tracks the summed posting-list capacities so
	// MemoryBytes is O(1) instead of a scan over the item universe.
	// Capacity, not length: append-doubling slack and the storage Reset
	// keeps are resident memory too.
	postingsCap int64

	// seen is an epoch-stamped per-item array reused across AddSet calls
	// so deduplication is O(len(items)) instead of O(len(items)^2).
	// AddSet mutation is externally serialized (the pool's entry lock),
	// so seen needs no mutex — but its epoch stamp still must only be
	// bumped through the wrap-safe helper.
	seen      []int32
	seenEpoch int32 // kboost:epoch

	// covMu guards the reusable stamped sketch array of CoverageOf,
	// which runs on every μ̂ estimate and must not allocate per call.
	covMu    sync.Mutex
	covSeen  []int32 // kboost:guarded-by covMu
	covEpoch int32   // kboost:guarded-by covMu // kboost:epoch

	// free recycles Select's working arrays across calls. Idle scratch
	// is all clear: every Select clears exactly what it set.
	free *freelist.List[selectScratch]
}

// selectScratch is one Select call's working state.
type selectScratch struct {
	covered []bool // sketch id -> covered by pre or a pick
	taken   []bool // item -> picked
	heap    Heap
}

func (s *selectScratch) bytes() int64 {
	return int64(cap(s.covered)+cap(s.taken)) + int64(cap(s.heap))*12
}

// New returns a Coverage over items 0..numItems-1.
func New(numItems int) *Coverage {
	return &Coverage{
		numItems: numItems,
		setStart: []int32{0},
		postings: make([][]int32, numItems),
		seen:     make([]int32, numItems),
		free:     freelist.New((*selectScratch).bytes),
	}
}

// Reset empties the index in place for a refill over the same item
// universe, keeping every backing array's capacity: the sketch CSR, the
// posting lists, the stamp arrays and the Select scratch. Like AddSet
// it must be externally serialized against every other method.
func (c *Coverage) Reset() {
	c.setStart = c.setStart[:1]
	c.setItems = c.setItems[:0]
	for v := range c.postings {
		c.postings[v] = c.postings[v][:0]
	}
}

// appendPosting records sketch id under item v, keeping postingsCap
// current.
func (c *Coverage) appendPosting(v, id int32) {
	p := c.postings[v]
	if len(p) == cap(p) {
		c.postingsCap -= int64(cap(p))
		p = append(p, id)
		c.postingsCap += int64(cap(p))
	} else {
		p = append(p, id)
	}
	c.postings[v] = p
}

// NumItems returns the size of the item universe.
func (c *Coverage) NumItems() int { return c.numItems }

// NumSets returns the number of sketches added.
func (c *Coverage) NumSets() int { return len(c.setStart) - 1 }

// Set returns sketch id's deduplicated item list; the result aliases
// internal storage (kboost:aliased-view).
func (c *Coverage) Set(id int) []int32 {
	return c.setItems[c.setStart[id]:c.setStart[id+1]]
}

// Sets materializes the stored sketches as a slice of views into
// internal storage (the items alias; the outer slice is fresh).
func (c *Coverage) Sets() [][]int32 {
	out := make([][]int32, c.NumSets())
	for i := range out {
		out[i] = c.Set(i)
	}
	return out
}

// bumpSeenEpoch advances the dedup stamp, clearing the stamp array when
// the int32 epoch wraps so ancient stamps can never read as current.
// kboost:epoch-helper
func (c *Coverage) bumpSeenEpoch() {
	if c.seenEpoch == math.MaxInt32 {
		clear(c.seen)
		c.seenEpoch = 0
	}
	c.seenEpoch++
}

// AddSet records one sketch. Items outside [0,numItems) are ignored;
// duplicates within one sketch are deduplicated. Empty sketches are
// allowed (they can never be covered) and count toward NumSets.
func (c *Coverage) AddSet(items []int32) {
	id := int32(c.NumSets())
	c.bumpSeenEpoch()
	for _, v := range items {
		if v < 0 || int(v) >= c.numItems {
			continue
		}
		if c.seen[v] == c.seenEpoch {
			continue
		}
		c.seen[v] = c.seenEpoch
		c.setItems = append(c.setItems, v)
		c.appendPosting(v, id)
	}
	c.setStart = append(c.setStart, int32(len(c.setItems)))
}

// AddSortedSet records one sketch whose items the caller guarantees are
// already sorted, duplicate-free and inside [0,numItems) — the shape
// PRR-graph critical sets leave generation with. It skips the dedup
// stamping pass, so merging per-worker shard arenas into the coverage
// index is a straight append.
func (c *Coverage) AddSortedSet(items []int32) {
	id := int32(c.NumSets())
	c.setItems = append(c.setItems, items...)
	c.setStart = append(c.setStart, int32(len(c.setItems)))
	for _, v := range items {
		c.appendPosting(v, id)
	}
}

// bumpCovEpoch sizes the CoverageOf stamp array for the current sketch
// count and advances its stamp, clearing the array when the int32 epoch
// wraps so ancient stamps can never read as current. Surfaced by the
// epochstamp analyzer: the bump used to live inline in CoverageOf,
// where the next inlined copy could have dropped the wrap guard.
// kboost:epoch-helper
// kboost:holds covMu
func (c *Coverage) bumpCovEpoch() {
	if len(c.covSeen) < c.NumSets() {
		c.covSeen = make([]int32, c.NumSets())
		c.covEpoch = 0
	}
	if c.covEpoch == math.MaxInt32 {
		clear(c.covSeen)
		c.covEpoch = 0
	}
	c.covEpoch++
}

// CoverageOf returns how many sketches contain at least one item of
// chosen.
func (c *Coverage) CoverageOf(chosen []int32) int {
	c.covMu.Lock()
	defer c.covMu.Unlock()
	c.bumpCovEpoch()
	covered := 0
	for _, v := range chosen {
		if v < 0 || int(v) >= c.numItems {
			continue
		}
		for _, s := range c.postings[v] {
			if c.covSeen[s] != c.covEpoch {
				c.covSeen[s] = c.covEpoch
				covered++
			}
		}
	}
	return covered
}

// MemoryBytes returns the resident size of the index's backing arrays
// (sets CSR, postings, the stamp arrays and the idle Select scratch),
// counted by capacity — the coverage share of a pool's MemoryEstimate.
// O(1): posting capacities are tracked as they grow, so byte
// accounting never scans the item universe. covMu is taken for the
// covSeen header read (surfaced by the guardedby analyzer: CoverageOf
// reallocates that array under covMu, and nothing orders an
// engine-side MemoryBytes call against concurrent estimates).
func (c *Coverage) MemoryBytes() int64 {
	c.covMu.Lock()
	covSeenCap := cap(c.covSeen)
	c.covMu.Unlock()
	bytes := int64(cap(c.setStart)+cap(c.setItems)+cap(c.seen)+covSeenCap) * 4
	bytes += c.postingsCap * 4
	bytes += int64(cap(c.postings)) * int64(unsafe.Sizeof(c.postings[0])) // slice headers
	bytes += c.free.Bytes()
	return bytes
}

// Select greedily picks up to k items maximizing sketch coverage, using
// lazy evaluation. banned items (may be nil) are never picked;
// preCovered sketches (by the items in pre) count as already covered and
// do not contribute to gains or the returned coverage delta.
//
// It returns the chosen items in pick order and the number of sketches
// they cover (excluding sketches pre covered). Its working arrays come
// from the Coverage's free list, so a warm Select allocates only the
// returned slice; concurrent calls each take their own scratch.
func (c *Coverage) Select(k int, banned []bool, pre []int32) (chosen []int32, covered int) {
	if k <= 0 {
		return nil, 0
	}
	s := c.free.Get()
	coveredSet := sizedClear(&s.covered, c.NumSets())
	taken := sizedClear(&s.taken, c.numItems)
	for _, v := range pre {
		if v < 0 || int(v) >= c.numItems {
			continue
		}
		for _, id := range c.postings[v] {
			coveredSet[id] = true
		}
	}

	gainOf := func(item int32) int32 {
		gain := int32(0)
		for _, id := range c.postings[item] {
			if !coveredSet[id] {
				gain++
			}
		}
		return gain
	}

	h := s.heap[:0]
	for v := 0; v < c.numItems; v++ {
		if banned != nil && banned[v] {
			continue
		}
		if len(c.postings[v]) == 0 {
			continue
		}
		h = append(h, Entry{Item: int32(v), Gain: int32(len(c.postings[v])), Stamp: -1})
	}
	h.Init()

	chosen = make([]int32, 0, min(k, len(h)))
	for len(chosen) < k && h.Len() > 0 {
		top := h.PopMax()
		if taken[top.Item] {
			continue
		}
		if top.Stamp == int32(len(chosen)) {
			// Gain is current: take it.
			if top.Gain == 0 {
				break
			}
			chosen = append(chosen, top.Item)
			taken[top.Item] = true
			covered += int(top.Gain)
			for _, id := range c.postings[top.Item] {
				coveredSet[id] = true
			}
			continue
		}
		// Stale: recompute and push back.
		top.Gain = gainOf(top.Item)
		top.Stamp = int32(len(chosen))
		h.PushEntry(top)
	}

	// Clear exactly what this call set, so the scratch goes back all
	// clear without a pass over the sketch or item universe.
	for _, list := range [2][]int32{pre, chosen} {
		for _, v := range list {
			if v < 0 || int(v) >= c.numItems {
				continue
			}
			for _, id := range c.postings[v] {
				coveredSet[id] = false
			}
		}
	}
	for _, v := range chosen {
		taken[v] = false
	}
	s.heap = h[:0]
	c.free.Put(s)
	return chosen, covered
}

// sizedClear returns (*buf)[:n], reallocating when the capacity is
// short. The backing array must be all false, which the caller keeps
// true by clearing what it sets before the next call.
func sizedClear(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	return (*buf)[:n]
}
