// Fixture for the arenaview analyzer: seeded violations carry want
// comments; everything else must stay silent.
package a

type arena struct {
	items []int32
	start []int32
}

// viewAt returns item segment i; the result aliases internal storage
// (kboost:aliased-view).
func (a *arena) viewAt(i int) []int32 {
	return a.items[a.start[i]:a.start[i+1]]
}

type holder struct {
	kept []int32
}

func appendDirect(a *arena) []int32 {
	return append(a.viewAt(0), 7) // want `append to aliased view from viewAt`
}

func appendVar(a *arena) []int32 {
	v := a.viewAt(0)
	return append(v, 7) // want `append to aliased view from viewAt`
}

func appendThroughCopy(a *arena) []int32 {
	v := a.viewAt(0)
	w := v
	return append(w, 7) // want `append to aliased view from viewAt`
}

func appendSubslice(a *arena) []int32 {
	v := a.viewAt(0)[1:]
	return append(v, 7) // want `append to aliased view from viewAt`
}

func capGrow(a *arena) []int32 {
	v := a.viewAt(0)
	return v[:cap(v)] // want `cap-growing reslice of aliased view from viewAt`
}

func threeIndex(a *arena) []int32 {
	v := a.viewAt(0)
	return v[0:1:2] // want `cap-growing reslice of aliased view from viewAt`
}

func escapeField(a *arena, h *holder) {
	h.kept = a.viewAt(0) // want `aliased view from viewAt .* stored into field kept`
}

func escapeLiteral(a *arena) holder {
	v := a.viewAt(0)
	return holder{kept: v} // want `aliased view from viewAt .* stored into struct literal field kept`
}

func copyOut(a *arena) []int32 {
	v := a.viewAt(0)
	out := append([]int32(nil), v...) // copying out is the blessed pattern
	dst := make([]int32, len(v))
	copy(dst, v)
	return out
}

func readOnly(a *arena) int32 {
	var sum int32
	for _, x := range a.viewAt(0) {
		sum += x
	}
	v := a.viewAt(0)
	if len(v) > 0 {
		sum += v[0]
	}
	w := v[:1] // len-shrinking reslice is fine
	_ = w
	return sum
}

func unrelated() []int32 {
	s := make([]int32, 0, 4)
	s = append(s, 1) // plain slices are out of scope
	return s[:cap(s)]
}

// store is a generic arena: views of an instantiated store resolve to
// the declared accessor's annotation.
type store[W any] struct {
	items []int32
	pay   []W
	start []int32
}

// segment returns item segment i (kboost:aliased-view).
func (s *store[W]) segment(i int) []int32 {
	return s.items[s.start[i]:s.start[i+1]]
}

func appendGeneric(s *store[float64]) []int32 {
	v := s.segment(0)
	return append(v, 7) // want `append to aliased view from segment`
}

func escapeGeneric[W any](s *store[W], h *holder) {
	h.kept = s.segment(1) // want `aliased view from segment .* stored into field kept`
}
