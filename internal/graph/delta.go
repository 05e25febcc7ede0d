package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// EdgeDelta is a batch mutation of a graph's edge set: edges to add,
// edges to remove, and edges whose probability pair changes. The node
// set is fixed — deltas mutate edges of an existing snapshot; growing
// the node universe is a full re-upload.
//
// A delta is a set, not a sequence: each (from, to) pair may appear in
// at most one operation, adds must not duplicate existing edges, and
// removes/reweights must reference existing edges. ApplyDelta rejects
// violations, so a validated delta applied to graph G yields exactly
// the graph FromEdges would build from the post-delta edge list.
type EdgeDelta struct {
	Add      []Edge
	Remove   []EdgeKey
	Reweight []Edge
}

// EdgeKey names one directed edge by its endpoints.
type EdgeKey struct {
	From, To int32
}

// Ops returns the total number of operations in the delta.
func (d *EdgeDelta) Ops() int {
	return len(d.Add) + len(d.Remove) + len(d.Reweight)
}

// DeltaEffect reports what ApplyDelta changed, in the form the pool
// repair paths consume: which nodes' adjacency lists (and therefore
// which cached samples) a change can have touched.
type DeltaEffect struct {
	// DirtyOut[u] is true when u's out-edge list changed in any way
	// (membership, order, or probabilities). DirtyIn[v] likewise for
	// v's in-edge list. len = g.N().
	DirtyOut []bool
	DirtyIn  []bool
	// DirtyOutCount / DirtyInCount are the number of true entries.
	DirtyOutCount int
	DirtyInCount  int

	Added, Removed, Reweighted int
}

// delta op kinds, ordered so sorting ops on one edge puts them adjacent.
const (
	opAdd uint8 = iota
	opRemove
	opReweight
)

// deltaOp is one normalized operation.
type deltaOp struct {
	from, to int32
	p, pb    float64
	kind     uint8
}

// ApplyDelta returns a new graph with d applied to g. The result is in
// the canonical Builder layout — every adjacency run sorted by neighbor
// id — and is bit-identical to rebuilding from the post-delta edge
// list, which is what lets pool repair compare against cold rebuilds.
// g is not modified.
//
// A delta that only reweights shares g's topology arrays: snapshots are
// immutable, so both graphs may read them. Only the four probability
// arrays are cloned, and each reweight is written at its edge's slot,
// found by binary search, in both directions. For d ops that costs
// O(d log d) to sort them, O(d log deg) to find the slots and one O(m)
// copy of each probability array.
//
// A delta that adds or removes edges builds new arrays. Only the runs
// of the nodes an op names are merged edge by edge; the untouched runs
// between two such nodes are copied with one append per array, and
// their starts shifted by the edge-count change so far. For d ops the
// cost is O(d log d) to sort them plus O(n + m) of block copies, with
// no per-node appends.
func (g *Graph) ApplyDelta(d *EdgeDelta) (*Graph, *DeltaEffect, error) {
	n := g.n
	ops := make([]deltaOp, 0, d.Ops())
	for _, e := range d.Add {
		if err := checkDeltaEdge(n, e.From, e.To); err != nil {
			return nil, nil, fmt.Errorf("graph: delta add (%d,%d): %w", e.From, e.To, err)
		}
		if err := checkProbPair(e.P, e.PBoost); err != nil {
			return nil, nil, fmt.Errorf("graph: delta add (%d,%d): %w", e.From, e.To, err)
		}
		ops = append(ops, deltaOp{from: e.From, to: e.To, p: e.P, pb: e.PBoost, kind: opAdd})
	}
	for _, k := range d.Remove {
		if err := checkDeltaEdge(n, k.From, k.To); err != nil {
			return nil, nil, fmt.Errorf("graph: delta remove (%d,%d): %w", k.From, k.To, err)
		}
		ops = append(ops, deltaOp{from: k.From, to: k.To, kind: opRemove})
	}
	for _, e := range d.Reweight {
		if err := checkDeltaEdge(n, e.From, e.To); err != nil {
			return nil, nil, fmt.Errorf("graph: delta reweight (%d,%d): %w", e.From, e.To, err)
		}
		if err := checkProbPair(e.P, e.PBoost); err != nil {
			return nil, nil, fmt.Errorf("graph: delta reweight (%d,%d): %w", e.From, e.To, err)
		}
		ops = append(ops, deltaOp{from: e.From, to: e.To, p: e.P, pb: e.PBoost, kind: opReweight})
	}

	// Out-major order for the out-CSR pass; one op per edge.
	slices.SortFunc(ops, func(a, b deltaOp) int {
		if c := cmp.Compare(a.from, b.from); c != 0 {
			return c
		}
		return cmp.Compare(a.to, b.to)
	})
	for i := 1; i < len(ops); i++ {
		if ops[i].from == ops[i-1].from && ops[i].to == ops[i-1].to {
			return nil, nil, fmt.Errorf("graph: delta has multiple operations on edge (%d,%d)", ops[i].from, ops[i].to)
		}
	}

	eff := &DeltaEffect{
		DirtyOut:   make([]bool, n),
		DirtyIn:    make([]bool, n),
		Added:      len(d.Add),
		Removed:    len(d.Remove),
		Reweighted: len(d.Reweight),
	}
	for _, op := range ops {
		if !eff.DirtyOut[op.from] {
			eff.DirtyOut[op.from] = true
			eff.DirtyOutCount++
		}
		if !eff.DirtyIn[op.to] {
			eff.DirtyIn[op.to] = true
			eff.DirtyInCount++
		}
	}

	if eff.Added == 0 && eff.Removed == 0 {
		ng, err := g.reweighted(ops)
		if err != nil {
			return nil, nil, err
		}
		return ng, eff, nil
	}

	m2 := g.M() + eff.Added - eff.Removed
	ng := &Graph{
		n:        n,
		outStart: make([]int32, n+1),
		outTo:    make([]int32, 0, m2),
		outP:     make([]float64, 0, m2),
		outPB:    make([]float64, 0, m2),
		inStart:  make([]int32, n+1),
		inFrom:   make([]int32, 0, m2),
		inP:      make([]float64, 0, m2),
		inPB:     make([]float64, 0, m2),
	}

	// patch builds one direction of the new CSR. ops are sorted by
	// (node, neighbor) for that direction, so they visit the dirty nodes
	// in id order. The untouched nodes between two dirty ones form one
	// block: it is copied with one append per array, and its starts
	// move by the edge-count change so far. Each dirty node's run is
	// merged with its ops.
	patch := func(start []int32, ids []int32, p, pb []float64,
		opNode func(deltaOp) int32, opNbr func(deltaOp) int32,
		nStart []int32, nIDs *[]int32, nP, nPB *[]float64) error {
		// copyBlock appends the untouched nodes [from, to).
		copyBlock := func(from, to int) {
			lo, hi := start[from], start[to]
			shift := int32(len(*nIDs)) - lo
			for w := from + 1; w <= to; w++ {
				nStart[w] = start[w] + shift
			}
			*nIDs = append(*nIDs, ids[lo:hi]...)
			*nP = append(*nP, p[lo:hi]...)
			*nPB = append(*nPB, pb[lo:hi]...)
		}
		next := 0 // first node not yet written
		for oi := 0; oi < len(ops); {
			u := int(opNode(ops[oi]))
			copyBlock(next, u)
			// Merge the old sorted run with this node's sorted ops.
			ei, hi := start[u], start[u+1]
			for ei < hi || (oi < len(ops) && int(opNode(ops[oi])) == u) {
				hasOp := oi < len(ops) && int(opNode(ops[oi])) == u
				switch {
				case !hasOp || (ei < hi && ids[ei] < opNbr(ops[oi])):
					*nIDs = append(*nIDs, ids[ei])
					*nP = append(*nP, p[ei])
					*nPB = append(*nPB, pb[ei])
					ei++
				case ei < hi && ids[ei] == opNbr(ops[oi]):
					op := ops[oi]
					oi++
					switch op.kind {
					case opAdd:
						return fmt.Errorf("graph: delta adds existing edge (%d,%d)", op.from, op.to)
					case opRemove:
						ei++
					case opReweight:
						*nIDs = append(*nIDs, ids[ei])
						*nP = append(*nP, op.p)
						*nPB = append(*nPB, op.pb)
						ei++
					}
				default: // op neighbor precedes the next old edge (or run done)
					op := ops[oi]
					oi++
					if op.kind != opAdd {
						return fmt.Errorf("graph: delta %s of missing edge (%d,%d)",
							opKindName(op.kind), op.from, op.to)
					}
					*nIDs = append(*nIDs, opNbr(op))
					*nP = append(*nP, op.p)
					*nPB = append(*nPB, op.pb)
				}
			}
			nStart[u+1] = int32(len(*nIDs))
			next = u + 1
		}
		copyBlock(next, n)
		return nil
	}

	if err := patch(g.outStart, g.outTo, g.outP, g.outPB,
		func(o deltaOp) int32 { return o.from }, func(o deltaOp) int32 { return o.to },
		ng.outStart, &ng.outTo, &ng.outP, &ng.outPB); err != nil {
		return nil, nil, err
	}

	// In-major order for the in-CSR pass.
	slices.SortFunc(ops, func(a, b deltaOp) int {
		if c := cmp.Compare(a.to, b.to); c != 0 {
			return c
		}
		return cmp.Compare(a.from, b.from)
	})
	if err := patch(g.inStart, g.inFrom, g.inP, g.inPB,
		func(o deltaOp) int32 { return o.to }, func(o deltaOp) int32 { return o.from },
		ng.inStart, &ng.inFrom, &ng.inP, &ng.inPB); err != nil {
		return nil, nil, err
	}

	if len(ng.outTo) != m2 || len(ng.inFrom) != m2 {
		return nil, nil, fmt.Errorf("graph: delta application produced %d out / %d in edges, want %d",
			len(ng.outTo), len(ng.inFrom), m2)
	}
	return ng, eff, nil
}

// reweighted returns g with the reweights ops applied; ops are sorted
// out-major, so the first missing edge reported is the one the merge
// path would report. The new graph shares g's topology arrays.
func (g *Graph) reweighted(ops []deltaOp) (*Graph, error) {
	ng := &Graph{
		n:        g.n,
		outStart: g.outStart,
		outTo:    g.outTo,
		outP:     slices.Clone(g.outP),
		outPB:    slices.Clone(g.outPB),
		inStart:  g.inStart,
		inFrom:   g.inFrom,
		inP:      slices.Clone(g.inP),
		inPB:     slices.Clone(g.inPB),
	}
	for _, op := range ops {
		i, ok := edgeSlot(g.outStart, g.outTo, op.from, op.to)
		if !ok {
			return nil, fmt.Errorf("graph: delta %s of missing edge (%d,%d)",
				opKindName(op.kind), op.from, op.to)
		}
		ng.outP[i], ng.outPB[i] = op.p, op.pb
		// The in-run mirrors the out-run, so the edge is there too.
		j, _ := edgeSlot(g.inStart, g.inFrom, op.to, op.from)
		ng.inP[j], ng.inPB[j] = op.p, op.pb
	}
	return ng, nil
}

// edgeSlot returns the index of neighbor v in u's sorted run of one CSR
// direction, and whether it is there.
func edgeSlot(start, ids []int32, u, v int32) (int, bool) {
	lo, hi := int(start[u]), int(start[u+1])
	i, ok := slices.BinarySearch(ids[lo:hi], v)
	return lo + i, ok
}

func checkDeltaEdge(n int, u, v int32) error {
	if int(u) < 0 || int(u) >= n || int(v) < 0 || int(v) >= n {
		return fmt.Errorf("endpoint out of range [0,%d)", n)
	}
	if u == v {
		return fmt.Errorf("self loop")
	}
	return nil
}

func opKindName(k uint8) string {
	switch k {
	case opAdd:
		return "add"
	case opRemove:
		return "remove"
	default:
		return "reweight"
	}
}
