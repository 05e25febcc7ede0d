// Package prr implements Potentially Reverse Reachable graphs
// (PRR-graphs, Section IV-B of the paper), the sampling primitive behind
// PRR-Boost and PRR-Boost-LB.
//
// A PRR-graph for a random root r is the subgraph of a sampled possible
// world containing all seed→root paths made of non-blocked edges, where
// each edge is live (probability p), live-upon-boost (probability p'−p)
// or blocked (probability 1−p'). For a boost set B,
//
//	f_R(B) = 1  iff  the root is inactive without boosting but a
//	             seed→root path becomes live once B is boosted,
//
// and n·E[f_R(B)] = Δ_S(B) (Lemma 1). The critical nodes
// C_R = {v : f_R({v}) = 1} define the submodular lower bound
// f−_R(B) = I(B ∩ C_R ≠ ∅) with n·E[f−_R(B)] = μ(B) ≤ Δ_S(B) (Lemma 2).
//
// Boostable PRR-graphs are stored compressed (Section V-A phase 2):
// everything live-reachable from the seeds is merged into a single
// super-seed (local node 0), nodes that cannot sit on any ≤k-boost
// seed→root path are dropped, and nodes with a live path to the root get
// a direct live edge to it.
package prr

import (
	"fmt"
	"math"
)

// Kind classifies a generated PRR-graph.
type Kind uint8

const (
	// KindActivated means the root is activated without any boosting:
	// f_R ≡ 0.
	KindActivated Kind = iota
	// KindHopeless means no seed→root path exists with at most k
	// live-upon-boost edges: f_R ≡ 0.
	KindHopeless
	// KindBoostable means boosting can activate the root.
	KindBoostable
)

func (k Kind) String() string {
	switch k {
	case KindActivated:
		return "activated"
	case KindHopeless:
		return "hopeless"
	case KindBoostable:
		return "boostable"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// PRR is a compressed boostable PRR-graph. Local node 0 is the
// super-seed; all other local nodes map to (non-seed) nodes of the
// original graph via Orig.
type PRR struct {
	root int32 // local id of the root node

	orig []int32 // local -> original id; orig[0] == -1 (super-seed)

	outStart []int32
	outTo    []int32
	outBoost []uint8 // 1 if the edge is live-upon-boost, 0 if live

	inStart []int32
	inFrom  []int32
	inBoost []uint8

	critical []int32 // original ids of the critical nodes C_R
}

// NumNodes returns the number of local nodes (including the super-seed).
func (R *PRR) NumNodes() int { return len(R.orig) }

// NumEdges returns the number of compressed edges.
func (R *PRR) NumEdges() int { return len(R.outTo) }

// Root returns the original id of the root node.
func (R *PRR) Root() int32 { return R.orig[R.root] }

// Critical returns the original ids of the critical nodes C_R. The
// slice aliases internal storage (kboost:aliased-view): treat it as
// read-only and copy it before growing or retaining it.
func (R *PRR) Critical() []int32 { return R.critical }

// Nodes returns the original ids of all boostable local nodes (every
// node except the super-seed). The result aliases internal storage
// starting at index 1 (kboost:aliased-view).
func (R *PRR) Nodes() []int32 { return R.orig[1:] }

// Scratch holds reusable BFS state for PRR evaluation. One Scratch may
// be shared across many PRR graphs but not across goroutines.
type Scratch struct {
	mark  []int32
	epoch int32 // kboost:epoch
	queue []int32
	cand  []int32
}

// NewScratch returns an empty Scratch.
func NewScratch() *Scratch { return &Scratch{} }

// reset prepares the scratch for one evaluation over n local nodes:
// it is the wrap-safe epoch bump (kboost:epoch-helper), so every other
// increment of s.epoch is an analyzer error by construction.
func (s *Scratch) reset(n int) {
	if len(s.mark) < n {
		s.mark = make([]int32, n)
		s.epoch = 0
	}
	// The epoch stamp must never repeat a value still present in mark:
	// after 2³¹ resets the int32 would wrap back over live stamps and
	// stale entries would read as "marked", so clear and restart instead.
	if s.epoch == math.MaxInt32 {
		clear(s.mark)
		s.epoch = 0
	}
	s.epoch++
	s.queue = s.queue[:0]
}

// bytes returns the scratch's resident size, counted by capacity.
func (s *Scratch) bytes() int64 {
	return int64(cap(s.mark)+cap(s.queue)+cap(s.cand)) * 4
}

// edgeLive reports whether an edge with the given boost flag and target
// is traversable: live edges always, boost edges only if the target's
// original node is boosted.
func (R *PRR) edgeLive(boost uint8, toLocal int32, mask []bool) bool {
	if boost == 0 {
		return true
	}
	o := R.orig[toLocal]
	return o >= 0 && mask[o]
}

// Eval computes f_R(B) for the boost set given as a node mask over the
// original graph: it reports whether the root becomes activated when B
// is boosted. (For a boostable PRR-graph the root is never active
// without boosting, so Eval(∅) is always false.)
func (R *PRR) Eval(mask []bool, s *Scratch) bool {
	s.reset(R.NumNodes())
	s.mark[0] = s.epoch
	s.queue = append(s.queue, 0)
	for qi := 0; qi < len(s.queue); qi++ {
		u := s.queue[qi]
		for e := R.outStart[u]; e < R.outStart[u+1]; e++ {
			v := R.outTo[e]
			if s.mark[v] == s.epoch {
				continue
			}
			if !R.edgeLive(R.outBoost[e], v, mask) {
				continue
			}
			if v == R.root {
				return true
			}
			s.mark[v] = s.epoch
			s.queue = append(s.queue, v)
		}
	}
	return false
}

// Candidates computes, for the current boost set B (as a mask), whether
// the root is already covered (f_R(B)=1) and — if not — the set of
// original node ids v ∉ B such that f_R(B ∪ {v}) = 1.
//
// A single extra boosted node v activates the root iff v lies on a
// seed→root path whose only non-live, non-B-boosted edge enters v:
// equivalently, v is backward-live-reachable from the root (under B) and
// has an in-edge that is live-upon-boost from a node forward-reachable
// from the super-seed (under B).
//
// The returned slice aliases s and is valid until the next call with s.
func (R *PRR) Candidates(mask []bool, s *Scratch) (covered bool, cands []int32) {
	n := R.NumNodes()
	s.reset(2 * n) // [0,n) forward marks, [n,2n) backward marks

	// Forward reachability A_B from the super-seed.
	s.mark[0] = s.epoch
	s.queue = append(s.queue, 0)
	for qi := 0; qi < len(s.queue); qi++ {
		u := s.queue[qi]
		for e := R.outStart[u]; e < R.outStart[u+1]; e++ {
			v := R.outTo[e]
			if s.mark[v] == s.epoch {
				continue
			}
			if !R.edgeLive(R.outBoost[e], v, mask) {
				continue
			}
			s.mark[v] = s.epoch
			s.queue = append(s.queue, v)
		}
	}
	if s.mark[R.root] == s.epoch {
		return true, nil
	}

	// Backward reachability Z_B from the root.
	s.queue = s.queue[:0]
	s.mark[int32(n)+R.root] = s.epoch
	s.queue = append(s.queue, R.root)
	for qi := 0; qi < len(s.queue); qi++ {
		v := s.queue[qi]
		for e := R.inStart[v]; e < R.inStart[v+1]; e++ {
			u := R.inFrom[e]
			if s.mark[int32(n)+u] == s.epoch {
				continue
			}
			// The edge (u,v) must itself be traversable under B.
			if !R.edgeLive(R.inBoost[e], v, mask) {
				continue
			}
			s.mark[int32(n)+u] = s.epoch
			s.queue = append(s.queue, u)
		}
	}

	// Candidates: v in Z_B with a live-upon-boost in-edge from A_B.
	s.cand = s.cand[:0]
	for v := int32(1); int(v) < n; v++ {
		if s.mark[int32(n)+v] != s.epoch {
			continue // not in Z_B
		}
		o := R.orig[v]
		if mask[o] {
			continue // already boosted
		}
		for e := R.inStart[v]; e < R.inStart[v+1]; e++ {
			if R.inBoost[e] == 1 && s.mark[R.inFrom[e]] == s.epoch {
				s.cand = append(s.cand, o)
				break
			}
		}
	}
	return false, s.cand
}

// validate checks internal consistency; used by tests and the generator.
func (R *PRR) validate() error {
	n := int32(R.NumNodes())
	if n < 2 {
		return fmt.Errorf("prr: graph with %d nodes (need super-seed + root)", n)
	}
	if R.root <= 0 || R.root >= n {
		return fmt.Errorf("prr: root local id %d out of range", R.root)
	}
	if R.orig[0] != -1 {
		return fmt.Errorf("prr: super-seed orig id %d != -1", R.orig[0])
	}
	if len(R.outStart) != int(n)+1 || len(R.inStart) != int(n)+1 {
		return fmt.Errorf("prr: CSR offset arrays have wrong length")
	}
	if R.outStart[n] != int32(len(R.outTo)) || R.inStart[n] != int32(len(R.inFrom)) {
		return fmt.Errorf("prr: CSR offsets do not cover edge arrays")
	}
	for i := int32(1); i < n; i++ {
		if R.orig[i] < 0 {
			return fmt.Errorf("prr: node %d has negative orig id", i)
		}
	}
	for _, v := range R.outTo {
		if v <= 0 || v >= n {
			return fmt.Errorf("prr: edge targets super-seed or out of range: %d", v)
		}
	}
	for _, u := range R.inFrom {
		if u < 0 || u >= n {
			return fmt.Errorf("prr: in-edge source out of range: %d", u)
		}
	}
	return nil
}
