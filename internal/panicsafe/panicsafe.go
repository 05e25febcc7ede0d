// Package panicsafe converts panics into errors at goroutine
// boundaries. Shard workers run user-graph driven simulation code; a
// panic there (a poisoned sketch, an injected fault, a latent bug) must
// not kill the daemon or — worse — skip a WaitGroup.Done and deadlock
// the merge that is waiting on it. Every worker of package shard's
// fan-outs runs its chunk in Do and hands the error back to the
// goroutine that started the fan-out.
package panicsafe

import (
	"fmt"
	"runtime/debug"
)

// Error is a recovered panic carried as an error value. Callers can
// errors.As on it to distinguish "a worker panicked and was contained"
// from ordinary failures (the engine counts these as panics_recovered).
type Error struct {
	Val   any    // the value passed to panic()
	Stack []byte // stack of the panicking goroutine, captured at recover
}

func (e *Error) Error() string {
	return fmt.Sprintf("recovered panic: %v", e.Val)
}

// Do runs fn, converting a panic into a *Error. A nil return means fn
// completed normally. The deferred recover runs on fn's goroutine, so
// Do is safe to use as the entire body of a worker goroutine:
//
//	go func() {
//		defer wg.Done()
//		if err := panicsafe.Do(work); err != nil { record(err) }
//	}()
func Do(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &Error{Val: r, Stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}
