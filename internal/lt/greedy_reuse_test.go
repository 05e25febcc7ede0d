package lt

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// TestGreedyScratchReuse runs greedy selections of different budgets
// and shortlists on one pool, serially, after a growth step and from
// concurrent goroutines, and requires each answer to equal the same
// query on a freshly built pool, whose recycled greedy state has never
// been used. State a selection leaves behind (a mask, a gain, a touch
// posting, a profile stamp) fails a later query here.
func TestGreedyScratchReuse(t *testing.T) {
	r := rng.New(31)
	g := testutil.RandomGraph(r, 50, 200, 0.5)
	ctx := context.Background()
	build := func(target int) *Pool {
		pool, err := NewPool(g, []int32{0, 7}, 9, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.ExtendContext(ctx, target); err != nil {
			t.Fatal(err)
		}
		return pool
	}
	type query struct {
		k     int
		among []int32
	}
	queries := []query{{4, nil}, {2, []int32{1, 3, 5, 9, 13, 17, 21}}, {1, nil}, {5, nil}, {3, []int32{2, 4, 6, 8, 10, 12, 14, 16}}}
	answer := func(pool *Pool, q query) string {
		var set []int32
		var val float64
		var err error
		if q.among == nil {
			set, val, err = pool.GreedyBoostContext(ctx, q.k, 0)
		} else {
			set, val, err = pool.GreedyBoostAmongContext(ctx, q.k, q.among)
		}
		if err != nil {
			t.Error(err)
		}
		return fmt.Sprint(set, val)
	}
	for _, target := range []int{200, 500} {
		want := make([]string, len(queries))
		for i, q := range queries {
			want[i] = answer(build(target), q)
		}
		pool := build(200)
		for i := range queries {
			answer(pool, queries[i])
		}
		if err := pool.ExtendContext(ctx, target); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			for i := range queries {
				j := (i*2 + round) % len(queries)
				if got := answer(pool, queries[j]); got != want[j] {
					t.Fatalf("target %d round %d query %d: reused state answered %s, fresh %s", target, round, j, got, want[j])
				}
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range queries {
					j := (i + w) % len(queries)
					if got := answer(pool, queries[j]); got != want[j] {
						t.Errorf("target %d goroutine %d query %d: %s, want %s", target, w, j, got, want[j])
					}
				}
			}(w)
		}
		wg.Wait()
	}
}
