package maxcover

// Entry is one lazily evaluated marginal gain in a Heap. Stamp is
// caller-defined staleness metadata: CELF-style selection stores the
// round the gain was computed in, lazy-deletion users store nothing and
// compare Gain against their authoritative gain array instead.
type Entry struct {
	Item  int32
	Gain  int32
	Stamp int32
}

// Heap is a max-heap of lazily evaluated gains ordered by (Gain desc,
// Item asc); the deterministic tie-break makes selection reproducible
// regardless of push order. It is shared by the μ̂ greedy here and the
// Δ̂ greedies in internal/prr and internal/model/profile.
//
// It is a typed binary heap: entries are never boxed in an interface,
// so pushes and pops allocate nothing beyond the slice's own growth.
// The sifts make the same comparisons and moves as container/heap's, so
// even entries that compare equal pop in the order they would there
// (heap_oracle_test.go pins that).
type Heap []Entry

// Len returns the number of entries.
func (h Heap) Len() int { return len(h) }

// before reports whether a sits above b: higher gain, then lower item.
func before(a, b Entry) bool {
	if a.Gain != b.Gain {
		return a.Gain > b.Gain
	}
	return a.Item < b.Item
}

// Init establishes the heap invariant over entries appended directly.
func (h Heap) Init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// PushEntry adds an entry.
func (h *Heap) PushEntry(e Entry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// PopMax removes and returns the maximum entry.
func (h *Heap) PopMax() Entry {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	*h = old[:n]
	return old[n]
}

// up sifts entry j toward the root.
func (h Heap) up(j int) {
	x := h[j]
	for j > 0 {
		i := (j - 1) / 2
		if !before(x, h[i]) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = x
}

// down sifts entry i toward the leaves of h[:n].
func (h Heap) down(i, n int) {
	x := h[i]
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && before(h[j2], h[j]) {
			j = j2
		}
		if !before(h[j], x) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
}
