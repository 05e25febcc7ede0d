package testutil

import "reflect"

// RetainedBytes is the reference for byte-accounting methods that
// claim to count resident memory by capacity (prr.Pool.MemoryEstimate,
// maxcover.Coverage.MemoryBytes): it sums cap × element size over every
// slice backing array reachable from v, each array once, following
// pointers, struct fields, array elements and slice elements up to the
// capacity. Pointers to any of the types in skip are not followed
// (shared state the object does not own, such as its graph snapshot).
// Maps, channels, functions and interfaces are not followed.
func RetainedBytes(v any, skip ...any) int64 {
	w := retainedWalker{seen: map[retainedKey]bool{}, skip: map[reflect.Type]bool{}}
	for _, s := range skip {
		w.skip[reflect.TypeOf(s)] = true
	}
	w.walk(reflect.ValueOf(v))
	return w.bytes
}

type retainedKey struct {
	addr uintptr
	kind reflect.Kind
}

type retainedWalker struct {
	seen  map[retainedKey]bool
	skip  map[reflect.Type]bool
	bytes int64
}

func (w *retainedWalker) walk(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || w.skip[v.Type()] || w.visit(v.Pointer(), reflect.Pointer) {
			return
		}
		w.walk(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			w.walk(v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			w.walk(v.Index(i))
		}
	case reflect.Slice:
		if v.Cap() == 0 || w.visit(v.Pointer(), reflect.Slice) {
			return
		}
		w.bytes += int64(v.Cap()) * int64(v.Type().Elem().Size())
		if !holdsRefs(v.Type().Elem()) {
			return
		}
		full := v.Slice(0, v.Cap())
		for i := 0; i < full.Len(); i++ {
			w.walk(full.Index(i))
		}
	}
}

// holdsRefs reports whether a value of type t can reach a pointer or a
// slice that walk follows.
func holdsRefs(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice:
		return true
	case reflect.Array:
		return holdsRefs(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsRefs(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// visit reports whether addr was already walked as kind, marking it.
func (w *retainedWalker) visit(addr uintptr, kind reflect.Kind) bool {
	k := retainedKey{addr, kind}
	if w.seen[k] {
		return true
	}
	w.seen[k] = true
	return false
}
