package freelist

import (
	"sync"
	"testing"
	"unsafe"
)

type buf struct{ b []byte }

func newList() *List[buf] {
	return New(func(x *buf) int64 { return int64(cap(x.b)) })
}

func TestGetEmptyReturnsNewZero(t *testing.T) {
	l := newList()
	a, b := l.Get(), l.Get()
	if a == nil || b == nil || a == b {
		t.Fatalf("Get on an empty list returned %p and %p, want two distinct objects", a, b)
	}
	if a.b != nil {
		t.Fatalf("Get on an empty list returned %+v, want a zero object", *a)
	}
}

func TestPutKeepsAtMostMaxIdle(t *testing.T) {
	l := newList()
	objs := make([]*buf, maxIdle+3)
	for i := range objs {
		objs[i] = &buf{b: make([]byte, i+1)}
		l.Put(objs[i])
	}
	if got := len(l.idle); got != maxIdle {
		t.Fatalf("%d idle after %d Puts, want %d", got, len(objs), maxIdle)
	}
	// The list hands back the objects it kept, last kept first, then new
	// ones.
	for i := maxIdle - 1; i >= 0; i-- {
		if got := l.Get(); got != objs[i] {
			t.Fatalf("Get returned %p, want the kept object %d (%p)", got, i, objs[i])
		}
	}
	if got := l.Get(); got.b != nil {
		t.Fatalf("Get on a drained list returned %+v, want a zero object", *got)
	}
}

func TestBytes(t *testing.T) {
	l := newList()
	ptr := int64(unsafe.Sizeof((*buf)(nil)))
	if got := l.Bytes(); got != 0 {
		t.Fatalf("empty list: Bytes %d, want 0", got)
	}
	l.Put(&buf{b: make([]byte, 100)})
	l.Put(&buf{b: make([]byte, 30, 40)})
	l.Put(&buf{b: make([]byte, 1000)}) // dropped: the list is full
	if got, want := l.Bytes(), 100+40+int64(cap(l.idle))*ptr; got != want {
		t.Fatalf("two idle objects: Bytes %d, want %d", got, want)
	}
	if x := l.Get(); cap(x.b) != 40 {
		t.Fatalf("Get returned an object of %d bytes, want the last one kept (40)", cap(x.b))
	}
	// The object on loan is no longer counted.
	if got, want := l.Bytes(), 100+int64(cap(l.idle))*ptr; got != want {
		t.Fatalf("one idle object, one on loan: Bytes %d, want %d", got, want)
	}
}

// TestConcurrentGetPut runs Get, Put and Bytes from several goroutines;
// under -race it checks the list's locking.
func TestConcurrentGetPut(t *testing.T) {
	l := newList()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				x := l.Get()
				if cap(x.b) == 0 {
					x.b = make([]byte, 8)
				}
				x.b[0]++
				l.Put(x)
				_ = l.Bytes()
			}
		}()
	}
	wg.Wait()
	if got := len(l.idle); got > maxIdle {
		t.Fatalf("%d idle objects, want at most %d", got, maxIdle)
	}
}
