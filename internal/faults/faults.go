// Package faults is a fault-injection registry for chaos testing the
// serving path. Production code calls Check at named injection points
// (snapshot load, pool-build shards, persistence writes, repair); tests
// and operators arm those points with latency, errors, or panics and
// then assert the system's invariants still hold — no cache poisoning,
// consistent counters, bit-identical results on retry.
//
// The registry is zero-cost when disarmed: Check is a single atomic
// bool load (no locks, no map lookups) until the first Enable call, so
// the injection points can live on cold-path shard boundaries without
// showing up in benchmarks.
package faults

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Injection point names. These are the places a production replica can
// actually fail: loading a snapshot directory at boot, the sharded
// Monte-Carlo build loops, the atomic-rename persistence writes, and
// the pool repair path after an edge delta.
const (
	SnapshotLoad   = "snapshot.load"
	PoolBuildShard = "pool.build.shard"
	PersistWrite   = "persist.write"
	Repair         = "repair"
)

// ErrInjected is the default error returned by an armed "error" point.
var ErrInjected = errors.New("faults: injected error")

// Fault describes what an armed point does when hit.
type Fault struct {
	// Mode is "error" (Check returns Err), "panic" (Check panics), or
	// "latency" (Check sleeps Delay, honoring context cancellation).
	Mode string
	// Err is returned in mode "error"; nil means ErrInjected.
	Err error
	// Delay is the sleep applied in mode "latency".
	Delay time.Duration
	// Count limits how many times the fault fires; <= 0 means every hit.
	Count int
}

var (
	gate  atomic.Bool // package-wide fast-path gate; see Check
	mu    sync.Mutex
	table map[string]*Fault
)

// Enable arms point with f. Arming any point flips the global gate on.
func Enable(point string, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	if table == nil {
		table = make(map[string]*Fault)
	}
	ff := f
	table[point] = &ff
	gate.Store(true)
}

// Disable disarms a single point; the global gate stays on while any
// other point is armed.
func Disable(point string) {
	mu.Lock()
	defer mu.Unlock()
	delete(table, point)
	if len(table) == 0 {
		gate.Store(false)
	}
}

// Reset disarms every point and turns the gate off.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	table = nil
	gate.Store(false)
}

// Enabled reports whether any point is armed.
func Enabled() bool { return gate.Load() }

// CheckContext applies the fault armed at point, if any. With the gate
// off it is a single atomic load. An injected latency sleep returns
// early with ctx.Err() if ctx is canceled first, so a canceled request
// does not serve out an injected stall.
func CheckContext(ctx context.Context, point string) error {
	if !gate.Load() {
		return nil
	}
	mu.Lock()
	f, ok := table[point]
	if ok && f.Count > 0 {
		f.Count--
		if f.Count == 0 {
			delete(table, point)
			if len(table) == 0 {
				gate.Store(false)
			}
		}
	}
	var act Fault
	if ok {
		act = *f
	}
	mu.Unlock()
	if !ok {
		return nil
	}
	switch act.Mode {
	case "latency":
		t := time.NewTimer(act.Delay)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	case "panic":
		panic(fmt.Sprintf("faults: injected panic at %s", point))
	case "error", "":
		if act.Err != nil {
			return act.Err
		}
		return ErrInjected
	default:
		return fmt.Errorf("faults: unknown mode %q at %s", act.Mode, point)
	}
}

// InitFromEnv arms points from a spec string, the value of the
// KBOOST_FAULTS environment variable in the daemon. Grammar:
//
//	spec    = entry *( ";" entry )
//	entry   = point "=" mode [ ":" arg ] [ "#" count ]
//	mode    = "error" | "panic" | "latency"
//
// arg is a Go duration for latency ("50ms") and ignored otherwise;
// count limits the number of firings. Example:
//
//	KBOOST_FAULTS="pool.build.shard=latency:250ms;persist.write=error#2"
func InitFromEnv(spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	for _, entry := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		point, rest, ok := strings.Cut(entry, "=")
		if !ok || point == "" {
			return fmt.Errorf("faults: bad entry %q (want point=mode[:arg][#count])", entry)
		}
		var f Fault
		if base, cnt, has := strings.Cut(rest, "#"); has {
			n := 0
			if _, err := fmt.Sscanf(cnt, "%d", &n); err != nil || n < 1 {
				return fmt.Errorf("faults: bad count in %q", entry)
			}
			f.Count = n
			rest = base
		}
		mode, arg, _ := strings.Cut(rest, ":")
		f.Mode = mode
		switch mode {
		case "latency":
			d, err := time.ParseDuration(arg)
			if err != nil {
				return fmt.Errorf("faults: bad latency in %q: %v", entry, err)
			}
			f.Delay = d
		case "error", "panic":
			// no arg
		default:
			return fmt.Errorf("faults: unknown mode %q in %q", mode, entry)
		}
		Enable(point, f)
	}
	return nil
}
