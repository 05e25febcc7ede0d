package maxcover

import (
	"container/heap"
	"testing"

	"github.com/kboost/kboost/internal/rng"
)

// refHeap is the container/heap-backed heap Heap replaced, kept as the
// oracle for its pop order: same (Gain desc, Item asc) ordering, with
// the standard library's sifts.
type refHeap []Entry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].Gain != h[j].Gain {
		return h[i].Gain > h[j].Gain
	}
	return h[i].Item < h[j].Item
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(Entry)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestHeapMatchesContainerHeap drives Heap and the container/heap
// oracle through the same random operations — a bulk Init, then mixed
// pushes and pops — and requires every popped Entry to be identical,
// Stamp included. Gains and items come from small ranges, so equal
// gains, equal (Gain, Item) keys with different stamps and exact
// duplicates are all common: the greedies push duplicate entries per
// node, and an order that differed on them could change their picks.
func TestHeapMatchesContainerHeap(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 400; trial++ {
		gains, items := 1+r.Intn(6), 1+r.Intn(12)
		entry := func() Entry {
			return Entry{Item: int32(r.Intn(items)), Gain: int32(r.Intn(gains)), Stamp: int32(r.Intn(3))}
		}
		var h Heap
		var ref refHeap
		for i, n := 0, r.Intn(40); i < n; i++ {
			e := entry()
			h = append(h, e)
			ref = append(ref, e)
		}
		h.Init()
		heap.Init(&ref)
		for op := 0; op < 200; op++ {
			if ref.Len() > 0 && r.Intn(2) == 0 {
				got, want := h.PopMax(), heap.Pop(&ref).(Entry)
				if got != want {
					t.Fatalf("trial %d op %d: PopMax = %+v, container/heap pops %+v", trial, op, got, want)
				}
				continue
			}
			e := entry()
			h.PushEntry(e)
			heap.Push(&ref, e)
		}
		for ref.Len() > 0 {
			got, want := h.PopMax(), heap.Pop(&ref).(Entry)
			if got != want {
				t.Fatalf("trial %d drain: PopMax = %+v, container/heap pops %+v", trial, got, want)
			}
		}
		if h.Len() != 0 {
			t.Fatalf("trial %d: %d entries left after the oracle drained", trial, h.Len())
		}
	}
}
