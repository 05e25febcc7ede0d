package engine

// Chaos property suite: drives the request path through the faults
// registry (injected latency, errors, and panics at the pool-build
// shard boundary) and asserts the robustness invariants hold —
//
//   - a canceled or failed cold build never poisons the cache (no
//     entry is left that a later query could mistake for a warm pool),
//   - a retried identical request is bit-identical to a run that was
//     never interrupted,
//   - a canceled extension leaves the existing pool intact and the
//     retry converges to the same pool a cold build would produce,
//   - counters stay consistent (canceled requests are counted, pool
//     accounting returns to zero when the cache is empty).
//
// Everything runs under -race in CI (make chaos-short).

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/kboost/kboost/internal/faults"
	"github.com/kboost/kboost/internal/panicsafe"
)

// chaosWorkers are the worker counts the properties are checked at:
// serial, the test default, and an uneven split.
var chaosWorkers = []int{1, 2, 7}

// chaosModes are the pooled modes the build-failure properties are
// checked for: both PRR modes and every simulation model. All of them
// sample through the same faults.PoolBuildShard boundary.
var chaosModes = []string{"ic", "lb", "lt", "sir", "kthresh"}

// chaosRequest is testRequest in the given mode, with a small profile
// budget for the simulation modes (ignored by the PRR modes).
func chaosRequest(mode string) BoostRequest {
	req := testRequest()
	req.Mode, req.Sims = mode, 400
	return req
}

func resetFaults(t *testing.T) {
	t.Helper()
	faults.Reset()
	t.Cleanup(faults.Reset)
}

// assertNoPools asserts the cache is empty with consistent accounting.
func assertNoPools(t *testing.T, e *Engine) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.pools) != 0 || e.lru.Len() != 0 || e.poolBytes != 0 {
		t.Fatalf("cache not empty: %d pools, lru %d, %d bytes", len(e.pools), e.lru.Len(), e.poolBytes)
	}
}

func poolCount(e *Engine) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pools)
}

// sameBoost compares the algorithmically meaningful parts of two boost
// results (the selection and its estimates, and the sample count —
// cache metadata and timings legitimately differ between runs).
func sameBoost(a, b *BoostResult) bool {
	return reflect.DeepEqual(a.BoostSet, b.BoostSet) &&
		a.EstBoost == b.EstBoost &&
		reflect.DeepEqual(a.BoostSetMu, b.BoostSetMu) &&
		a.EstMu == b.EstMu &&
		reflect.DeepEqual(a.BoostSetDelta, b.BoostSetDelta) &&
		a.EstDelta == b.EstDelta &&
		a.Samples == b.Samples
}

// TestChaosCancelColdBuild cancels a Boost mid-cold-build (an injected
// latency fault holds every shard worker at the build boundary so the
// cancellation reliably lands mid-flight) and asserts the request
// returns ctx.Err() promptly, the cache is left unpoisoned, and a
// retried identical request is bit-identical to an uninterrupted run.
func TestChaosCancelColdBuild(t *testing.T) {
	for _, w := range chaosWorkers {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			resetFaults(t)
			req := testRequest()
			req.Workers = w

			ref := newTestEngine(t, Options{})
			want, err := ref.Boost(req)
			if err != nil {
				t.Fatal(err)
			}

			e := newTestEngine(t, Options{})
			faults.Enable(faults.PoolBuildShard, faults.Fault{Mode: "latency", Delay: 2 * time.Second})
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(30 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err = e.BoostContext(ctx, req)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled build returned %v, want context.Canceled", err)
			}
			if d := time.Since(start); d > 1500*time.Millisecond {
				t.Errorf("cancellation took %s, want prompt return well before the injected 2s stall", d)
			}
			assertNoPools(t, e)
			if got := e.Stats().RequestsCanceled; got != 1 {
				t.Errorf("RequestsCanceled = %d, want 1", got)
			}

			faults.Reset()
			got, err := e.BoostContext(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if got.CacheHit {
				t.Error("retry after canceled cold build reported a cache hit")
			}
			if !sameBoost(got, want) {
				t.Errorf("retry not bit-identical to uninterrupted run:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestChaosCancelSimExtension builds an LT profile pool, cancels a
// request that would extend it, and asserts the existing pool survives
// untouched (the extension rolls back its RNG draws) so the retried
// extension converges to the exact pool a cold build at the larger
// budget produces.
func TestChaosCancelSimExtension(t *testing.T) {
	for _, w := range chaosWorkers {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			resetFaults(t)
			small := testRequest()
			small.Mode, small.Sims, small.Workers = "lt", 200, w
			big := small
			big.Sims = 400

			ref := newTestEngine(t, Options{})
			want, err := ref.Boost(big) // cold build straight to 400
			if err != nil {
				t.Fatal(err)
			}

			e := newTestEngine(t, Options{})
			if _, err := e.Boost(small); err != nil {
				t.Fatal(err)
			}
			faults.Enable(faults.PoolBuildShard, faults.Fault{Mode: "latency", Delay: 2 * time.Second})
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(30 * time.Millisecond)
				cancel()
			}()
			if _, err := e.BoostContext(ctx, big); !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled extension returned %v, want context.Canceled", err)
			}
			// A failed extension keeps the entry: the 200-profile pool is
			// still valid and still warm.
			if n := poolCount(e); n != 1 {
				t.Fatalf("pool count after canceled extension = %d, want 1 (entry kept)", n)
			}

			faults.Reset()
			got, err := e.Boost(big)
			if err != nil {
				t.Fatal(err)
			}
			if !got.CacheHit || got.NewSamples != 200 {
				t.Errorf("retry should extend the surviving pool by 200: %+v", got)
			}
			if !reflect.DeepEqual(got.BoostSet, want.BoostSet) || got.EstBoost != want.EstBoost || got.Samples != want.Samples {
				t.Errorf("extended pool not bit-identical to cold build:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestChaosInjectedBuildError fails one shard of a cold build with an
// injected error and asserts, for every pooled mode, that the failure
// surfaces (wrapping the injected error), drops the entry rather than
// caching a half-built pool, and the retry is bit-identical to an
// uninterrupted run.
func TestChaosInjectedBuildError(t *testing.T) {
	for _, mode := range chaosModes {
		t.Run(mode, func(t *testing.T) {
			resetFaults(t)
			req := chaosRequest(mode)

			ref := newTestEngine(t, Options{})
			want, err := ref.Boost(req)
			if err != nil {
				t.Fatal(err)
			}

			e := newTestEngine(t, Options{})
			faults.Enable(faults.PoolBuildShard, faults.Fault{Mode: "error", Count: 1})
			if _, err := e.Boost(req); !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("build with injected shard error returned %v, want faults.ErrInjected", err)
			}
			assertNoPools(t, e)

			// Count: 1 disarmed the point after firing; the retry builds clean.
			got, err := e.Boost(req)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBoost(got, want) {
				t.Errorf("retry after injected error not bit-identical:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestChaosFailedRebuildKeepsPool fails the rebuild a larger k forces
// on a PRR pool and asserts the error surfaces while the old pool stays
// cached: it still serves every k it was built for, and a repeat of the
// original query is a cache hit bit-identical to its first answer.
func TestChaosFailedRebuildKeepsPool(t *testing.T) {
	for _, mode := range []string{"ic", "lb"} {
		t.Run(mode, func(t *testing.T) {
			resetFaults(t)
			e := newTestEngine(t, Options{})
			small := chaosRequest(mode)
			small.K = 1
			want, err := e.Boost(small)
			if err != nil {
				t.Fatal(err)
			}

			big := small
			big.K = 4
			faults.Enable(faults.PoolBuildShard, faults.Fault{Mode: "error", Count: 1})
			if _, err := e.Boost(big); !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("rebuild with injected shard error returned %v, want faults.ErrInjected", err)
			}
			st := e.Stats()
			if st.Pools != 1 {
				t.Errorf("Pools = %d after a failed rebuild, want 1 (old pool kept)", st.Pools)
			}
			if st.PoolRebuilds != 0 {
				t.Errorf("PoolRebuilds = %d after a failed rebuild, want 0", st.PoolRebuilds)
			}

			got, err := e.Boost(small)
			if err != nil {
				t.Fatal(err)
			}
			if !got.CacheHit || got.Rebuilt || got.NewSamples != 0 {
				t.Errorf("repeat k=1 after failed rebuild: CacheHit=%v Rebuilt=%v NewSamples=%d, want a warm hit",
					got.CacheHit, got.Rebuilt, got.NewSamples)
			}
			if got.PoolK != 1 || !sameBoost(got, want) {
				t.Errorf("repeat k=1 not served bit-identically by the old pool:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestChaosShardPanicIsolation panics a shard worker and asserts, for
// every pooled mode, that the panic is contained (surfacing as a
// *panicsafe.Error-wrapped internal error, not a crash), counted, and
// leaves the cache unpoisoned for a clean retry.
func TestChaosShardPanicIsolation(t *testing.T) {
	for _, mode := range chaosModes {
		t.Run(mode, func(t *testing.T) {
			resetFaults(t)
			req := chaosRequest(mode)

			ref := newTestEngine(t, Options{})
			want, err := ref.Boost(req)
			if err != nil {
				t.Fatal(err)
			}

			e := newTestEngine(t, Options{})
			faults.Enable(faults.PoolBuildShard, faults.Fault{Mode: "panic", Count: 1})
			_, err = e.Boost(req)
			var pe *panicsafe.Error
			if !errors.As(err, &pe) {
				t.Fatalf("build with injected panic returned %v, want a *panicsafe.Error", err)
			}
			if got := e.Stats().PanicsRecovered; got != 1 {
				t.Errorf("PanicsRecovered = %d, want 1", got)
			}
			assertNoPools(t, e)

			got, err := e.Boost(req)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBoost(got, want) {
				t.Errorf("retry after contained panic not bit-identical:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestChaosCanceledLeaderHandsOff cancels a cold-build leader while an
// identical follower waits on the entry, for every pooled mode. The
// abandoned entry must be handed to the follower (not dropped, not
// poisoned): the follower builds under the same lock and serves the
// same bit-identical result an uninterrupted run produces.
func TestChaosCanceledLeaderHandsOff(t *testing.T) {
	for _, mode := range chaosModes {
		t.Run(mode, func(t *testing.T) {
			resetFaults(t)
			req := chaosRequest(mode)

			ref := newTestEngine(t, Options{})
			want, err := ref.Boost(req)
			if err != nil {
				t.Fatal(err)
			}

			e := newTestEngine(t, Options{})
			faults.Enable(faults.PoolBuildShard, faults.Fault{Mode: "latency", Delay: 2 * time.Second})

			leaderCtx, cancelLeader := context.WithCancel(context.Background())
			leaderErr := make(chan error, 1)
			go func() {
				_, err := e.BoostContext(leaderCtx, req)
				leaderErr <- err
			}()
			// Give the leader time to take the entry lock and stall on the
			// injected latency, and the follower time to queue behind it. If
			// the timing misses (loaded CI machine), the entry is dropped
			// instead of handed off and the follower cold-builds its own —
			// the observable result is identical either way; the sleeps just
			// bias the test toward exercising the handoff path.
			time.Sleep(50 * time.Millisecond)
			followerRes := make(chan *BoostResult, 1)
			followerErr := make(chan error, 1)
			go func() {
				res, err := e.Boost(req)
				followerRes <- res
				followerErr <- err
			}()
			time.Sleep(50 * time.Millisecond)
			cancelLeader()
			if err := <-leaderErr; !errors.Is(err, context.Canceled) {
				t.Fatalf("leader returned %v, want context.Canceled", err)
			}
			// The follower now owns the build; let it run clean.
			faults.Reset()
			if err := <-followerErr; err != nil {
				t.Fatalf("follower failed after leader handoff: %v", err)
			}
			got := <-followerRes
			if !sameBoost(got, want) {
				t.Errorf("follower result not bit-identical after handoff:\n got %+v\nwant %+v", got, want)
			}
			if n := poolCount(e); n != 1 {
				t.Errorf("pool count after handoff = %d, want 1", n)
			}
			if got := e.Stats().RequestsCanceled; got != 1 {
				t.Errorf("RequestsCanceled = %d, want 1", got)
			}
		})
	}
}

// TestChaosRepairFaultLeavesRegistryIntact fails RepairGraph at its
// injection point and asserts the registry and cache are untouched: the
// snapshot stays at its version and warm pools still serve.
func TestChaosRepairFaultLeavesRegistryIntact(t *testing.T) {
	resetFaults(t)
	e := newTestEngine(t, Options{})
	req := testRequest()
	if _, err := e.Boost(req); err != nil {
		t.Fatal(err)
	}
	infoBefore, err := e.GraphInfo("g")
	if err != nil {
		t.Fatal(err)
	}

	g, err := e.Graph("g")
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(faults.Repair, faults.Fault{Mode: "error", Count: 1})
	if _, err := e.RepairGraph("g", testDelta(t, g)); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("repair with injected fault returned %v, want faults.ErrInjected", err)
	}
	infoAfter, err := e.GraphInfo("g")
	if err != nil {
		t.Fatal(err)
	}
	if infoAfter.Version != infoBefore.Version {
		t.Errorf("failed repair bumped version %d -> %d", infoBefore.Version, infoAfter.Version)
	}
	warm, err := e.Boost(req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Error("warm pool lost after failed repair")
	}
}
