// Package freelist keeps per-query scratch that a long-lived index
// reuses across queries: the greedy selections over a cached pool each
// need node- or sketch-sized working arrays, and allocating them per
// call costs more in zeroing and garbage collection than the selection
// itself on a small k.
//
// Unlike sync.Pool, a List never drops idle objects behind its owner's
// back, so the scratch it holds is a known quantity the owner can count
// in its resident bytes (Bytes).
package freelist

import (
	"sync"
	"unsafe"
)

// maxIdle bounds the idle objects a List keeps: one query's scratch and
// one concurrent sibling's. Further concurrent queries get fresh objects
// that Put drops, the cost every query paid before scratch was reused.
const maxIdle = 2

// List is a bounded free list of *T. Objects come back through Put in
// the state Get hands them out in; what that state is (for selection
// scratch: all clear) is the caller's invariant. Safe for concurrent
// use.
type List[T any] struct {
	size func(*T) int64

	mu   sync.Mutex
	idle []*T // kboost:guarded-by mu
}

// New returns an empty List; size reports an object's resident bytes,
// counted from its backing arrays' capacities.
func New[T any](size func(*T) int64) *List[T] {
	return &List[T]{size: size}
}

// Get returns an idle object, or a new zero one when none is idle.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.idle)
	if n == 0 {
		return new(T)
	}
	x := l.idle[n-1]
	l.idle[n-1] = nil
	l.idle = l.idle[:n-1]
	return x
}

// Put returns x for reuse, dropping it when the list is full.
func (l *List[T]) Put(x *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.idle) < maxIdle {
		l.idle = append(l.idle, x)
	}
}

// Bytes returns the resident bytes of the idle objects and the list's
// own array. Objects out on loan are a running query's working memory
// and are not counted.
func (l *List[T]) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := int64(cap(l.idle)) * int64(unsafe.Sizeof((*T)(nil)))
	for _, x := range l.idle {
		b += l.size(x)
	}
	return b
}
