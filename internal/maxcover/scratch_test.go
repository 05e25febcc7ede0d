package maxcover

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/kboost/kboost/internal/rng"
)

// TestSelectScratchReuse runs a mix of Select queries — different k,
// banned masks and pre-covered items — on one Coverage, serially in an
// interleaved order and then from concurrent goroutines, and requires
// each answer to equal the same query on a fresh Coverage (whose
// scratch has never been used). It then checks that the idle scratch
// went back all clear, the invariant that lets Select skip zeroing.
func TestSelectScratchReuse(t *testing.T) {
	const items = 300
	build := func() *Coverage {
		r := rng.New(17)
		c := New(items)
		for s := 0; s < 2000; s++ {
			set := make([]int32, 1+r.Intn(4))
			for i := range set {
				set[i] = int32(r.Intn(items))
			}
			c.AddSet(set)
		}
		return c
	}
	type query struct {
		k      int
		banned []bool
		pre    []int32
	}
	r := rng.New(3)
	var queries []query
	for i := 0; i < 12; i++ {
		q := query{k: 1 + r.Intn(15)}
		if i%3 == 1 {
			q.banned = make([]bool, items)
			for v := range q.banned {
				q.banned[v] = r.Intn(4) == 0
			}
		}
		if i%2 == 1 {
			q.pre = []int32{int32(r.Intn(items)), int32(r.Intn(items)), -1, items}
		}
		queries = append(queries, q)
	}
	answer := func(c *Coverage, q query) string {
		chosen, covered := c.Select(q.k, q.banned, q.pre)
		return fmt.Sprint(chosen, covered)
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = answer(build(), q)
	}

	c := build()
	for round := 0; round < 3; round++ {
		for i := range queries {
			j := (i*5 + round) % len(queries)
			if got := answer(c, queries[j]); got != want[j] {
				t.Fatalf("round %d query %d: reused scratch answered %s, fresh %s", round, j, got, want[j])
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8*len(queries))
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queries {
				j := (i + w) % len(queries)
				if got := answer(c, queries[j]); got != want[j] {
					errs <- fmt.Sprintf("goroutine %d query %d: %s, want %s", w, j, got, want[j])
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	for i := 0; i < 2; i++ {
		s := c.free.Get()
		if slices.Contains(s.covered[:cap(s.covered)], true) || slices.Contains(s.taken[:cap(s.taken)], true) {
			t.Fatal("idle Select scratch is not all clear")
		}
	}
}
