package prr

import "github.com/kboost/kboost/internal/rng"

// standaloneResult is a generation Result whose boostable payload owns
// its memory and outlives the Generator: the form the tests, the golden
// transcript and the generation benchmarks inspect one graph at a time.
type standaloneResult struct {
	Result
	Graph    *PRR    // compressed graph; nil unless boostable in ModeFull
	Critical []int32 // critical node ids; nil unless boostable
}

// Generate produces one PRR-graph for a uniformly random root as a
// standaloneResult (see GenerateFrom).
func (gen *Generator) Generate(r *rng.Source) standaloneResult {
	root := int32(r.Intn(gen.g.N()))
	return gen.GenerateFrom(root, r)
}

// GenerateFrom produces one PRR-graph rooted at root (Algorithm 1) and
// copies its payload out of a one-graph arena. Pools use GenerateInto
// instead, which appends the same bits to a shared arena.
func (gen *Generator) GenerateFrom(root int32, r *rng.Source) standaloneResult {
	var a arena
	res := standaloneResult{Result: gen.generateInto(&a, root, r)}
	if res.Kind != KindBoostable {
		return res
	}
	if gen.mode == ModeFull {
		view := a.at(0)
		res.Graph = clonePRR(&view)
		res.Critical = res.Graph.critical
	} else {
		res.Critical = append([]int32(nil), a.critAt(0)...)
	}
	return res
}

// clonePRR deep-copies a (possibly arena-backed) PRR view into a
// standalone graph owning its storage.
func clonePRR(v *PRR) *PRR {
	return &PRR{
		root:     v.root,
		orig:     append([]int32(nil), v.orig...),
		outStart: append([]int32(nil), v.outStart...),
		outTo:    append([]int32(nil), v.outTo...),
		outBoost: append([]uint8(nil), v.outBoost...),
		inStart:  append([]int32(nil), v.inStart...),
		inFrom:   append([]int32(nil), v.inFrom...),
		inBoost:  append([]uint8(nil), v.inBoost...),
		critical: append([]int32(nil), v.critical...),
	}
}
