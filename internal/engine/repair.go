package engine

// This file is the engine side of delta graph mutation: RepairGraph
// applies an edge delta to a registered snapshot, installing the
// patched graph under a bumped version — and instead of sweeping the
// old version's cached pools the way UploadGraph does, it migrates
// them: each pool is repaired in place (prr.Pool.Repair / the sim
// pool's model.Repairer resample only the sketches/profiles the delta
// touched) and re-keyed to the new version, so the warm state survives
// the mutation. A pool whose touched share of regeneration cost
// (expansion/cascade size, not sketch count) exceeds
// Options.RepairFallbackFraction is dropped instead — at that point a
// cold rebuild is cheaper — and the next query rebuilds it. Sim pools
// whose model cannot migrate in place (no Repairer: "sir", "kthresh")
// and content-derived pools take the same fallback: dropped, rebuilt
// cold on next use.
//
// The version-migration protocol keeps the "no query ever mixes
// snapshots" invariant intact:
//
//  1. ApplyDelta runs outside Engine.mu (it is the expensive CSR
//     patch). Under Engine.mu we then verify the snapshot is still the
//     one the delta was applied to — if an upload or delete raced us,
//     the patch is refused with ErrGraphChanged rather than silently
//     applied to the wrong base — install the patched snapshot, and
//     detach every cached pool of the old version in the same critical
//     section. From that instant no new query can find the old pools.
//  2. Each detached entry is repaired under its own entry lock (which
//     waits out any in-flight build) and, on success, its pool is
//     transplanted into a *fresh* entry keyed to the new version. The
//     old entry is emptied so a racing query still holding it rebuilds
//     a detached throwaway instead of poisoning the re-keyed cache.
//  3. The fresh entry is inserted under Engine.mu only if the patched
//     version is still current and the key is unoccupied (a query
//     against the new version may have built its own pool meanwhile —
//     that pool is just as good, and keeping it avoids clobbering an
//     entry other queries already hold).
//
// Because repaired pools are bit-identical to cold rebuilds at the
// same sample count (the pool-level equivalence property), queries
// served by a migrated pool are indistinguishable from queries served
// by a pool built from scratch on the patched graph.

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"github.com/kboost/kboost/internal/faults"
	"github.com/kboost/kboost/internal/graph"
)

// ErrGraphChanged is returned (wrapped) when a snapshot is replaced or
// deleted between a patch's delta application and its installation —
// the delta was computed against a base that is no longer current, so
// applying it would silently corrupt the new snapshot. Callers retry
// against the current version (HTTP maps this to 409 Conflict).
var ErrGraphChanged = errors.New("graph changed during patch")

// RepairResult reports an accepted edge-delta patch: the patched
// snapshot's descriptor, the delta's shape, and what happened to the
// old version's cached pools.
type RepairResult struct {
	GraphInfo
	// Added, Removed and Reweighted count the delta's applied edge ops.
	Added      int `json:"added"`
	Removed    int `json:"removed"`
	Reweighted int `json:"reweighted"`
	// PoolsRepaired counts cached pools migrated to the new version;
	// RepairedSketches / RepairedProfiles are the PRR sketches and LT
	// profiles they had to resample. PoolsDropped counts pools that fell
	// back to a cold rebuild (touched fraction above the threshold).
	PoolsRepaired    int `json:"pools_repaired"`
	PoolsDropped     int `json:"pools_dropped"`
	RepairedSketches int `json:"repaired_sketches"`
	RepairedProfiles int `json:"repaired_profiles"`
}

// rekey swaps the snapshot version embedded in a pool cache key
// ("id@version|tag|..."), preserving the mode tag and seed-set suffix.
func rekey(key, graphID string, version uint64) string {
	rest := key[len(graphID)+1:] // past "id@"
	return graphID + "@" + strconv.FormatUint(version, 10) + rest[strings.IndexByte(rest, '|'):]
}

// RepairGraph applies an edge delta to the current snapshot of id,
// installing the patched graph under a bumped version and migrating
// the old version's cached pools by repair instead of sweeping them.
// On any error the registry and cache are left untouched.
func (e *Engine) RepairGraph(id string, delta *graph.EdgeDelta) (RepairResult, error) {
	return e.RepairGraphContext(context.Background(), id, delta)
}

// RepairGraphContext is RepairGraph with cooperative cancellation up to
// the point of no return: ctx is honored before the delta is applied
// and again before the patched snapshot is installed, so a canceled
// patch leaves the registry and cache byte-identical. Once the new
// version is installed the pool migration runs to completion regardless
// of ctx — the old pools are already detached, and abandoning them
// half-migrated would leak warm state and skew the repair counters.
func (e *Engine) RepairGraphContext(ctx context.Context, id string, delta *graph.EdgeDelta) (RepairResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if delta == nil {
		return RepairResult{}, fmt.Errorf("engine: nil delta for graph %q", id)
	}
	if err := faults.CheckContext(ctx, faults.Repair); err != nil {
		return RepairResult{}, e.noteRequestErr(err)
	}
	g, version, err := e.snapshotFor(id)
	if err != nil {
		return RepairResult{}, err
	}
	g2, eff, err := g.ApplyDelta(delta)
	if err != nil {
		return RepairResult{}, err
	}
	if err := ctx.Err(); err != nil {
		// Canceled after the (side-effect-free) delta application: the
		// patched graph is discarded, nothing was installed.
		return RepairResult{}, e.noteRequestErr(err)
	}

	e.mu.Lock()
	snap, ok := e.graphs[id]
	if !ok {
		e.mu.Unlock()
		return RepairResult{}, fmt.Errorf("engine: %w: %q", ErrUnknownGraph, id)
	}
	if snap.g != g || snap.version != version {
		e.mu.Unlock()
		return RepairResult{}, fmt.Errorf("engine: %w: %q is at version %d, delta was applied to version %d",
			ErrGraphChanged, id, snap.version, version)
	}
	newVersion := e.nextVersionLocked(id)
	e.graphs[id] = &snapshot{g: g2, version: newVersion}
	// Detach the old version's pools in the same critical section that
	// installs the new snapshot: new queries key to the new version and
	// can only miss, while in-flight queries finish coherently against
	// detached entries.
	var detached []*poolEntry
	var detachedBytes []int64
	for key, ent := range e.pools {
		if ent.graphID != id {
			continue
		}
		delete(e.pools, key)
		e.lru.Remove(ent.elem)
		e.poolBytes -= ent.bytes
		detached = append(detached, ent)
		detachedBytes = append(detachedBytes, ent.bytes)
	}
	e.mu.Unlock()
	atomic.AddInt64(&e.ctr.GraphPatches, 1)

	res := RepairResult{
		GraphInfo: GraphInfo{ID: id, Version: newVersion, Nodes: g2.N(), Edges: g2.M()},
		Added:     eff.Added, Removed: eff.Removed, Reweighted: eff.Reweighted,
	}
	for i, ent := range detached {
		fresh, bytes, sketches, profiles, hadPool := e.repairEntry(ent, g2, eff, newVersion)
		if fresh == nil {
			if hadPool {
				res.PoolsDropped++
				atomic.AddInt64(&e.ctr.RepairFallbackRebuilds, 1)
				atomic.AddInt64(&e.ctr.InvalidatedPools, 1)
				atomic.AddInt64(&e.ctr.RetiredPoolBytes, detachedBytes[i])
			}
			continue
		}
		res.PoolsRepaired++
		res.RepairedSketches += sketches
		res.RepairedProfiles += profiles
		atomic.AddInt64(&e.ctr.RepairSkippedRebuilds, 1)
		atomic.AddInt64(&e.ctr.RepairedSketches, int64(sketches))
		atomic.AddInt64(&e.ctr.RepairedProfiles, int64(profiles))

		e.mu.Lock()
		cur, live := e.graphs[id]
		if live && cur.version == newVersion {
			if _, occupied := e.pools[fresh.key]; !occupied {
				e.pools[fresh.key] = fresh
				fresh.elem = e.lru.PushFront(fresh)
				fresh.bytes = bytes
				e.poolBytes += bytes
				e.evictLocked()
			}
		}
		e.mu.Unlock()
	}
	return res, nil
}

// repairEntry repairs one detached entry's pool onto the patched graph
// and transplants it into a fresh entry keyed to the new version.
// Returns fresh == nil when the entry holds nothing worth migrating
// (hadPool false) or the repair fell back (hadPool true); otherwise
// the fresh entry, its resident bytes, and the resampled
// sketch/profile counts. Either way the old entry is emptied, so a
// racing query that still holds it rebuilds a detached throwaway
// rather than serving (or growing) a pool that now belongs to the
// re-keyed fresh entry.
func (e *Engine) repairEntry(ent *poolEntry, g2 *graph.Graph, eff *graph.DeltaEffect, newVersion uint64) (fresh *poolEntry, bytes int64, sketches, profiles int, hadPool bool) {
	ent.mu.Lock()
	defer ent.mu.Unlock()
	defer ent.clearResults()
	p, derived := ent.pool, ent.derived
	ent.pool = nil
	if p == nil {
		// Never built (a failed or just-acquired entry): nothing to
		// migrate, nothing to drop.
		return nil, 0, 0, 0, false
	}
	// A content-derived pool's worlds came from transformed
	// probabilities the base-graph delta does not describe: drop it and
	// rebuild cold.
	if derived {
		return nil, 0, 0, 0, true
	}
	sketches, profiles, ok := p.repair(g2, eff, e.opt.RepairFallbackFraction)
	if !ok {
		return nil, 0, 0, 0, true
	}
	fresh = &poolEntry{key: rekey(ent.key, ent.graphID, newVersion), graphID: ent.graphID}
	fresh.ready.Store(true)
	fresh.mu.Lock()
	fresh.pool = p
	fresh.mu.Unlock()
	return fresh, p.MemoryEstimate(), sketches, profiles, true
}
