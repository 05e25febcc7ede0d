// Fixture for the epochstamp analyzer: seeded violations carry want
// comments; everything else must stay silent.
package a

import "math"

type scratch struct {
	mark  []int32
	epoch int32 // kboost:epoch
	round int32 // un-annotated: free to touch
}

// bumpEpoch advances the stamp, wrap-safely.
// kboost:epoch-helper
func (s *scratch) bumpEpoch() {
	if s.epoch == math.MaxInt32 {
		clear(s.mark)
		s.epoch = 0
	}
	s.epoch++
}

func (s *scratch) inlineBump() {
	s.epoch++ // want `epoch field epoch \(kboost:epoch\) incremented outside its wrap-safe helper`
}

func (s *scratch) inlineAdd() {
	s.epoch += 1 // want `epoch field epoch \(kboost:epoch\) incremented outside its wrap-safe helper`
}

func (s *scratch) spelledOut() {
	s.epoch = s.epoch + 1 // want `epoch field epoch \(kboost:epoch\) incremented outside its wrap-safe helper`
}

func (s *scratch) reset() {
	s.epoch = 0 // resets are allowed anywhere
	clear(s.mark)
}

func (s *scratch) unrelated() {
	s.round++ // un-annotated fields are out of scope
}

// badBump is declared a helper but forgets the wrap guard.
// kboost:epoch-helper
func (s *scratch) badBump() {
	s.epoch++ // want `epoch helper badBump increments epoch without a wrap guard`
}

func (s *scratch) use(v int32) bool {
	s.bumpEpoch()
	if s.mark[v] == s.epoch { // comparisons are reads, not increments
		return true
	}
	s.mark[v] = s.epoch
	return false
}

// stamps is a generic scratch: inside its methods the receiver is an
// instantiated type whose field objects are copies of the declared
// ones, so the annotation must be resolved through the field's origin.
type stamps[T any] struct {
	mark  []int32
	epoch int32 // kboost:epoch
	items []T
}

// bump advances the stamp, wrap-safely.
// kboost:epoch-helper
func (s *stamps[T]) bump() {
	if s.epoch == math.MaxInt32 {
		clear(s.mark)
		s.epoch = 0
	}
	s.epoch++
}

func (s *stamps[T]) inlineBump() {
	s.epoch++ // want `epoch field epoch \(kboost:epoch\) incremented outside its wrap-safe helper`
}

// badBump is declared a helper but forgets the wrap guard.
// kboost:epoch-helper
func (s *stamps[T]) badBump() {
	s.epoch += 1 // want `epoch helper badBump increments epoch without a wrap guard`
}

func bumpInstance(s *stamps[float64]) {
	s.epoch = s.epoch + 1 // want `epoch field epoch \(kboost:epoch\) incremented outside its wrap-safe helper`
}
