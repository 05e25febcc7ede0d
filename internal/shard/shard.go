// Package shard fans a loop over [0, n) out to a fixed number of
// workers. Every sharded loop of the samplers, estimators and pool
// builders runs through Each or Build, so they share one split rule:
// n items on workers workers make k = min(n, workers) contiguous,
// ascending chunks, and chunk w holds n/k items, plus one when
// w < n%k. The split-stream estimators (diffusion's and lt's
// Monte-Carlo means, rrset) draw chunk w from the w-th split of one
// root stream, so their answers depend on this rule; every other
// caller's answer is the same for every split.
package shard

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/kboost/kboost/internal/faults"
	"github.com/kboost/kboost/internal/panicsafe"
)

// cancelStride is a Build shard's cooperative-cancellation poll
// interval: one stop/ctx check per 64 items keeps the per-item cost at
// an untaken branch, invisible next to a sampled sketch or cascade,
// while bounding cancellation latency to a few items' work.
const cancelStride = 64

// Each runs fn(w, lo, hi) for every chunk w of [0, n), chunk w covering
// [lo, hi), concurrently, and returns when all are done. There are
// exactly min(n, workers) chunks (none when n <= 0; workers < 1 counts
// as 1), and a single chunk runs on the calling goroutine.
//
// A panic in fn is contained in its chunk: the other chunks run to
// completion, then Each panics on the calling goroutine with the
// *panicsafe.Error of the lowest chunk that panicked, which keeps that
// worker's stack. A caller's recover therefore sees a worker's panic
// however many chunks ran.
func Each(n, workers int, fn func(w, lo, hi int)) {
	if _, err := fork(n, workers, fn); err != nil {
		panic(err)
	}
}

// Build runs a cancellable build of n items on the chunks of Each:
// shard w calls fn(w, i) for each item i of its chunk, in order. Each
// shard first passes the faults.PoolBuildShard injection point, then
// polls its stop flag and ctx every cancelStride items. The first
// failure in a shard (an injected fault, a panic, or a poll that finds
// ctx done) flips the stop flag, so its siblings bail at their next
// poll. Build returns the first shard error in worker order, a panic
// as *panicsafe.Error, else ctx.Err(): nil means every item ran and
// ctx was live when the last shard finished. On error the caller
// discards or rolls back what the shards wrote.
func Build(ctx context.Context, n, workers int, fn func(w, i int)) error {
	errs := make([]error, chunks(n, workers))
	var stop atomic.Bool
	w, err := fork(n, workers, func(w, lo, hi int) {
		done := false
		defer func() {
			if !done {
				stop.Store(true)
			}
		}()
		if errs[w] = faults.CheckContext(ctx, faults.PoolBuildShard); errs[w] != nil {
			return
		}
		for i := lo; i < hi; i++ {
			if (i-lo)%cancelStride == 0 && (stop.Load() || ctx.Err() != nil) {
				errs[w] = ctx.Err()
				return
			}
			fn(w, i)
		}
		done = true
	})
	if err != nil {
		errs[w] = err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// chunks returns the number of chunks n items on workers workers make.
func chunks(n, workers int) int { return max(min(n, max(workers, 1)), 0) }

// fork runs fn on every chunk as Each describes, each under
// panicsafe.Do, and returns the lowest chunk that panicked with its
// recovered panic; err is nil when none did.
func fork(n, workers int, fn func(w, lo, hi int)) (int, error) {
	k := chunks(n, workers)
	switch k {
	case 0:
		return 0, nil
	case 1:
		return 0, run(n, 1, 0, fn)
	}
	// Every goroutine runs the one closure below and claims the next
	// chunk, so a fork allocates the same two objects for any k.
	var f struct {
		wg   sync.WaitGroup
		next atomic.Int32
		mu   sync.Mutex
		w    int
		err  error
	}
	f.wg.Add(k)
	work := func() {
		defer f.wg.Done()
		w := int(f.next.Add(1)) - 1
		if err := run(n, k, w, fn); err != nil {
			f.mu.Lock()
			if f.err == nil || w < f.w {
				f.w, f.err = w, err
			}
			f.mu.Unlock()
		}
	}
	for range k {
		go work()
	}
	f.wg.Wait()
	return f.w, f.err
}

// run runs fn on chunk w of n items cut into k chunks.
func run(n, k, w int, fn func(w, lo, hi int)) error {
	q, r := n/k, n%k
	lo := w*q + min(w, r)
	hi := lo + q
	if w < r {
		hi++
	}
	return panicsafe.Do(func() { fn(w, lo, hi) })
}
