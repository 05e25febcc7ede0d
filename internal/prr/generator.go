package prr

import (
	"fmt"
	"slices"
	"unsafe"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rng"
)

// Mode selects how much of a boostable PRR-graph is materialized.
type Mode uint8

const (
	// ModeFull builds the compressed PRR-graph and its critical nodes
	// (needed by PRR-Boost, which greedily optimizes Δ̂ on the pool).
	ModeFull Mode = iota
	// ModeLB computes only the critical node set C_R, generating with an
	// effective budget of one boost: single-boost seed→root paths are all
	// C_R depends on, which is why PRR-Boost-LB is faster and leaner
	// (Section V-C).
	ModeLB
)

const inf = int32(1) << 29

// rawEdge is a non-blocked edge recorded during the backward BFS, in
// original node ids. boost is 1 for live-upon-boost edges.
type rawEdge struct {
	from, to int32
	boost    uint8
}

// sEdge is a stage-2 (post-contraction) edge in stage-local ids.
type sEdge struct {
	from, to int32
	boost    uint8
}

// Result reports one generated PRR-graph: its kind and size statistics.
// A boostable graph's payload stays in the arena it was emitted into.
type Result struct {
	Kind Kind
	Root int32
	// RawEdges is the number of non-blocked edges recorded before
	// compression (the "uncompressed" size of Tables 2-3).
	RawEdges int
	// CompressedEdges is the edge count after compression (ModeFull).
	CompressedEdges int
	// NumCritical is the size of the critical node set C_R.
	NumCritical int
	// EdgesExamined counts edge lookups during generation: the empirical
	// analogue of EPT in the running-time analysis.
	EdgesExamined int
}

// Generator produces random PRR-graphs for a fixed (graph, seeds, k).
// It owns large scratch buffers; create one per goroutine. All scratch
// — including the compression working set — is reused across
// generations, so generation (GenerateInto) performs no steady-state
// allocations beyond amortized arena growth.
type Generator struct {
	g        *graph.Graph
	seedMask []bool
	k        int
	mode     Mode

	dr       []int32 // phase 1: node -> #boost-edges to root (inf if unseen)
	expanded []bool
	cur      []int32
	next     []int32

	rawEdges []rawEdge
	rawNodes []int32 // original ids with dr assigned, in discovery order

	localOf []int32 // original id -> raw local index (valid for rawNodes)

	emptyMask []bool // all-false mask for critical extraction
	scratch   *Scratch

	// rawAdj scratch: CSR over the raw edges in raw-local ids, with the
	// edge payloads (endpoint local id, boost flag) materialized in CSR
	// order so the compression BFS passes read contiguous memory instead
	// of chasing edge indices through rawEdges.
	adjOutStart, adjInStart []int32
	adjOutTo, adjInFrom     []int32
	adjOutBoost, adjInBoost []uint8
	adjOutPos, adjInPos     []int32

	// compress scratch, all sized by the raw or stage node count.
	dS, dpr             []int32
	inX                 []bool
	keepID              []int32
	stageOrig           []int32
	sEdges              []sEdge
	sOutStart, sInStart []int32
	sOutTo, sInFrom     []int32
	fwd, bwd            []bool
	finalID             []int32
	finalOrig           []int32
	outPosF, inPosF     []int32
	sortKeys            []uint64
	q                   []int32

	// lastExpanded records the nodes expanded by the most recent
	// generation, in discovery order. A generation's RNG draw sequence is
	// exactly: one root draw, then one draw per in-edge of each expanded
	// node — so a sketch is affected by a graph delta iff some expanded
	// node's in-edge list changed. Pool repair reads this after every
	// GenerateInto to maintain its per-sketch touched-edge index. The
	// slice is overwritten by the next generation.
	lastExpanded []int32
}

// NewGenerator returns a Generator. seeds must be valid node ids; k>=1.
func NewGenerator(g *graph.Graph, seeds []int32, k int, mode Mode) (*Generator, error) {
	if k < 1 {
		return nil, fmt.Errorf("prr: k=%d must be >= 1", k)
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("prr: empty seed set")
	}
	seedMask := make([]bool, g.N())
	for _, s := range seeds {
		if s < 0 || int(s) >= g.N() {
			return nil, fmt.Errorf("prr: seed %d out of range [0,%d)", s, g.N())
		}
		seedMask[s] = true
	}
	gen := &Generator{
		g:         g,
		seedMask:  seedMask,
		k:         k,
		mode:      mode,
		dr:        make([]int32, g.N()),
		expanded:  make([]bool, g.N()),
		localOf:   make([]int32, g.N()),
		emptyMask: make([]bool, g.N()),
		scratch:   NewScratch(),
	}
	for i := range gen.dr {
		gen.dr[i] = inf
	}
	return gen, nil
}

// rebind points the generator at g, a graph over the same node set
// (a patched snapshot): the node-indexed scratch stays valid, so pool
// repair keeps it instead of building fresh generators.
func (gen *Generator) rebind(g *graph.Graph) { gen.g = g }

// bytes returns the generator's resident scratch, counted by capacity:
// the node-indexed arrays (11 B per node) plus the per-generation
// buffers, which keep the size of the largest sketch generated so far.
func (gen *Generator) bytes() int64 {
	b := int64(cap(gen.dr)+cap(gen.cur)+cap(gen.next)+cap(gen.rawNodes)+cap(gen.localOf)+cap(gen.lastExpanded)) * 4
	b += int64(cap(gen.seedMask) + cap(gen.expanded) + cap(gen.emptyMask))
	b += int64(cap(gen.rawEdges)) * int64(unsafe.Sizeof(rawEdge{}))
	b += int64(cap(gen.adjOutStart)+cap(gen.adjInStart)+cap(gen.adjOutTo)+cap(gen.adjInFrom)+cap(gen.adjOutPos)+cap(gen.adjInPos)) * 4
	b += int64(cap(gen.adjOutBoost) + cap(gen.adjInBoost))
	b += int64(cap(gen.dS)+cap(gen.dpr)+cap(gen.keepID)+cap(gen.stageOrig)) * 4
	b += int64(cap(gen.inX) + cap(gen.fwd) + cap(gen.bwd))
	b += int64(cap(gen.sEdges)) * int64(unsafe.Sizeof(sEdge{}))
	b += int64(cap(gen.sOutStart)+cap(gen.sInStart)+cap(gen.sOutTo)+cap(gen.sInFrom)) * 4
	b += int64(cap(gen.finalID)+cap(gen.finalOrig)+cap(gen.outPosF)+cap(gen.inPosF)+cap(gen.q)) * 4
	b += int64(cap(gen.sortKeys)) * 8
	b += gen.scratch.bytes()
	return b
}

// genBudget is the pruning budget for phase 1 (k, or 1 in LB mode).
func (gen *Generator) genBudget() int32 {
	if gen.mode == ModeLB {
		return 1
	}
	return int32(gen.k)
}

// cleanup resets all per-generation scratch state, harvesting the
// expanded-node set into lastExpanded on the way out (rawNodes is in
// discovery order, so lastExpanded is too).
func (gen *Generator) cleanup() {
	gen.lastExpanded = gen.lastExpanded[:0]
	for _, v := range gen.rawNodes {
		gen.dr[v] = inf
		if gen.expanded[v] {
			gen.lastExpanded = append(gen.lastExpanded, v)
			gen.expanded[v] = false
		}
	}
	gen.rawNodes = gen.rawNodes[:0]
	gen.rawEdges = gen.rawEdges[:0]
	gen.cur = gen.cur[:0]
	gen.next = gen.next[:0]
}

// GenerateInto produces one PRR-graph for a uniformly random root,
// appending any boostable payload (compressed graph in ModeFull,
// critical set in both modes) to a. The Result carries kind and size
// statistics only.
func (gen *Generator) GenerateInto(a *arena, r *rng.Source) Result {
	root := int32(r.Intn(gen.g.N()))
	return gen.generateInto(a, root, r)
}

// generateInto is the shared generation core (Algorithm 1): phase-1
// backward sampling, then — for boostable roots — compression (ModeFull)
// or direct critical extraction (ModeLB) emitted into a.
func (gen *Generator) generateInto(a *arena, root int32, r *rng.Source) Result {
	defer gen.cleanup()
	res := Result{Root: root}
	if gen.seedMask[root] {
		res.Kind = KindActivated
		return res
	}

	res.Kind, res.EdgesExamined = gen.phase1(root, r)
	if res.Kind != KindBoostable {
		return res
	}
	res.RawEdges = len(gen.rawEdges)

	if gen.mode == ModeLB {
		res.NumCritical = gen.criticalFromRawInto(a, root)
		return res
	}

	numCrit, compressed, err := gen.compressInto(a, root)
	if err != nil {
		// Compression failing indicates an internal invariant violation;
		// surface it loudly rather than silently skewing estimates.
		panic(fmt.Sprintf("prr: compression failed: %v", err))
	}
	res.NumCritical = numCrit
	res.CompressedEdges = compressed
	return res
}

// phase1 is the backward 0-1 BFS from root (Algorithm 1, phase 1): it
// samples the possible world lazily, records the non-blocked edges and
// discovered nodes that can lie on a seed→root path with at most
// genBudget boosts, and classifies the root. It returns the kind and
// the number of edges examined. Bucket queues process nodes in
// nondecreasing boost-distance, so a node's distance is final when it
// is expanded.
//
// Draw order (see lastExpanded): nodes are expanded in bucket-queue
// order and each expanded node's in-edges in CSR order, and every such
// edge draws exactly one r.Float64 u — live if u < p, live-upon-boost
// if p <= u < p', blocked otherwise. Generation stops at the draw that
// makes a seed live-reach the root.
//
// The RNG state and the fixed-size scratch stay in locals for the whole
// BFS. The growing queues and raw-edge lists stay in their fields: they
// are written only for non-blocked edges, and copying them in and out
// cost more than it saved on sparse graphs, where most generations
// expand a handful of nodes.
func (gen *Generator) phase1(root int32, r *rng.Source) (kind Kind, examined int) {
	g := gen.g
	kGen := gen.genBudget()
	dr, expanded, seedMask := gen.dr, gen.expanded, gen.seedMask
	s0, s1, s2, s3 := r.State()

	dr[root] = 0
	gen.rawNodes = append(gen.rawNodes, root)
	gen.cur = append(gen.cur, root)
	kind = KindHopeless
	d := int32(0)
bfs:
	for len(gen.cur) > 0 {
		for qi := 0; qi < len(gen.cur); qi++ {
			u := gen.cur[qi]
			if dr[u] != d || expanded[u] {
				continue
			}
			expanded[u] = true
			from := g.InFrom(u)
			pArr := g.InP(u)
			pbArr := g.InPBoost(u)
			for i, v := range from {
				// Every node is expanded at most once and edge (v,u) lives
				// only in u's in-edge list, so each edge of the possible
				// world is sampled exactly once per generation — no status
				// cache is needed for consistency.
				var x uint64
				x, s0, s1, s2, s3 = rng.Step(s0, s1, s2, s3)
				examined++
				f := rng.Unit(x)
				dvr := d
				var b uint8
				if f >= pArr[i] {
					if f >= pbArr[i] {
						continue // blocked
					}
					dvr++
					b = 1
				}
				if dvr > kGen {
					continue // pruning: cannot become live with <= k boosts
				}
				gen.rawEdges = append(gen.rawEdges, rawEdge{from: v, to: u, boost: b})
				if dvr < dr[v] {
					if dr[v] == inf {
						gen.rawNodes = append(gen.rawNodes, v)
					}
					dr[v] = dvr
					if seedMask[v] {
						if dvr == 0 {
							kind = KindActivated
							break bfs
						}
						kind = KindBoostable
						// Seeds terminate paths: never expanded.
					} else if dvr == d {
						gen.cur = append(gen.cur, v)
					} else {
						gen.next = append(gen.next, v)
					}
				}
			}
		}
		gen.cur, gen.next = gen.next, gen.cur[:0]
		d++
	}
	r.SetState(s0, s1, s2, s3)
	return kind, examined
}

// rawAdj builds forward and backward adjacency over the raw edges in
// local indices, reusing the Generator's CSR scratch. Edge payloads are
// materialized in CSR order — outTo/outBoost indexed by outStart (the
// target local id and boost flag of each out-edge), inFrom/inBoost by
// inStart — so downstream BFS passes stream through contiguous arrays.
func (gen *Generator) rawAdj() (cnt int, outStart, outTo, inStart, inFrom []int32, outBoost, inBoost []uint8) {
	cnt = len(gen.rawNodes)
	for i, orig := range gen.rawNodes {
		gen.localOf[orig] = int32(i)
	}
	outStart = sized(&gen.adjOutStart, cnt+1)
	inStart = sized(&gen.adjInStart, cnt+1)
	for _, e := range gen.rawEdges {
		outStart[gen.localOf[e.from]+1]++
		inStart[gen.localOf[e.to]+1]++
	}
	for i := 0; i < cnt; i++ {
		outStart[i+1] += outStart[i]
		inStart[i+1] += inStart[i]
	}
	m := len(gen.rawEdges)
	outTo = sizedDirty(&gen.adjOutTo, m)
	inFrom = sizedDirty(&gen.adjInFrom, m)
	outBoost = sizedDirty(&gen.adjOutBoost, m)
	inBoost = sizedDirty(&gen.adjInBoost, m)
	outPos := sizedDirty(&gen.adjOutPos, cnt)
	inPos := sizedDirty(&gen.adjInPos, cnt)
	copy(outPos, outStart[:cnt])
	copy(inPos, inStart[:cnt])
	for _, e := range gen.rawEdges {
		f := gen.localOf[e.from]
		t := gen.localOf[e.to]
		outTo[outPos[f]] = t
		outBoost[outPos[f]] = e.boost
		outPos[f]++
		inFrom[inPos[t]] = f
		inBoost[inPos[t]] = e.boost
		inPos[t]++
	}
	return cnt, outStart, outTo, inStart, inFrom, outBoost, inBoost
}

// criticalFromRawInto computes C_R directly on the raw structure and
// appends it (sorted) to a:
// X = nodes live-reachable from seeds, Z = nodes live-reaching the root;
// v is critical iff v ∉ X, v ∈ Z, and some live-upon-boost edge (u,v)
// has u ∈ X. Returns |C_R|.
func (gen *Generator) criticalFromRawInto(a *arena, root int32) int {
	cnt, outStart, outTo, inStart, inFrom, outBoost, inBoost := gen.rawAdj()

	inX := sized(&gen.inX, cnt)
	queue := gen.q[:0]
	for i, orig := range gen.rawNodes {
		if gen.seedMask[orig] {
			inX[i] = true
			queue = append(queue, int32(i))
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for j := outStart[u]; j < outStart[u+1]; j++ {
			if outBoost[j] == 1 {
				continue
			}
			t := outTo[j]
			if !inX[t] {
				inX[t] = true
				queue = append(queue, t)
			}
		}
	}

	inZ := sized(&gen.fwd, cnt) // reuse fwd scratch as the Z mask
	rl := gen.localOf[root]
	inZ[rl] = true
	queue = append(queue[:0], rl)
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for j := inStart[v]; j < inStart[v+1]; j++ {
			if inBoost[j] == 1 {
				continue
			}
			f := inFrom[j]
			if !inZ[f] {
				inZ[f] = true
				queue = append(queue, f)
			}
		}
	}
	gen.q = queue[:0]

	critOff := int32(len(a.critical))
	for i, orig := range gen.rawNodes {
		if inX[i] || !inZ[i] {
			continue
		}
		for j := inStart[i]; j < inStart[int32(i)+1]; j++ {
			if inBoost[j] == 1 && inX[inFrom[j]] {
				a.critical = append(a.critical, orig)
				break
			}
		}
	}
	crit := a.critical[critOff:]
	slices.Sort(crit)
	a.refs = append(a.refs, prrRef{
		nodeOff: int32(len(a.orig)), startOff: int32(len(a.outStart)),
		edgeOff: int32(len(a.outTo)),
		critOff: critOff, numCrit: int32(len(crit)),
	})
	return len(crit)
}

// compressInto implements phase 2 of Algorithm 1 (Section V-A): merge
// the live-reachable region into a super-seed, drop nodes that cannot
// lie on a <=k-boost seed→root path, shortcut live paths to the root,
// and keep only nodes on super-seed→root paths. The compressed graph
// and its critical set are appended to a. The result preserves f_R(B)
// and f−_R(B) for all |B| <= k.
func (gen *Generator) compressInto(a *arena, root int32) (numCrit, compressedEdges int, err error) {
	cnt, outStart, outTo, inStart, inFrom, outBoost, inBoost := gen.rawAdj()
	rl := gen.localOf[root]

	// dS: 0-1 BFS from seeds over raw edges (forward). Weight 1 on
	// live-upon-boost edges.
	dS := sizedDirty(&gen.dS, cnt)
	for i := range dS {
		dS[i] = inf
	}
	cur, next := gen.q[:0], gen.next[:0]
	for i, orig := range gen.rawNodes {
		if gen.seedMask[orig] {
			dS[i] = 0
			cur = append(cur, int32(i))
		}
	}
	for d := int32(0); len(cur) > 0; d++ {
		for qi := 0; qi < len(cur); qi++ {
			u := cur[qi]
			if dS[u] != d {
				continue
			}
			for j := outStart[u]; j < outStart[u+1]; j++ {
				t := outTo[j]
				nd := d + int32(outBoost[j])
				if nd < dS[t] {
					dS[t] = nd
					if nd == d {
						cur = append(cur, t)
					} else {
						next = append(next, t)
					}
				}
			}
		}
		cur, next = next, cur[:0]
	}

	// X is the live-reachable region: exactly the nodes with dS == 0.
	if dS[rl] == 0 {
		return 0, 0, fmt.Errorf("root is live-reachable in a boostable PRR-graph")
	}

	// d'r: 0-1 BFS backward from the root, not passing through X.
	dpr := sizedDirty(&gen.dpr, cnt)
	for i := range dpr {
		dpr[i] = inf
	}
	dpr[rl] = 0
	cur = append(cur[:0], rl)
	next = next[:0]
	for d := int32(0); len(cur) > 0; d++ {
		for qi := 0; qi < len(cur); qi++ {
			v := cur[qi]
			if dpr[v] != d {
				continue
			}
			for j := inStart[v]; j < inStart[v+1]; j++ {
				f := inFrom[j]
				if dS[f] == 0 {
					continue // paths may start at the super-seed but not cross it
				}
				nd := d + int32(inBoost[j])
				if nd < dpr[f] {
					dpr[f] = nd
					if nd == d {
						cur = append(cur, f)
					} else {
						next = append(next, f)
					}
				}
			}
		}
		cur, next = next, cur[:0]
	}
	gen.q, gen.next = cur[:0], next[:0]

	// Stage-2 ids: 0 = super-seed; kept non-X nodes renumbered 1..
	keepID := sizedDirty(&gen.keepID, cnt)
	stageOrig := append(gen.stageOrig[:0], -1) // stage id -> original id (stage 0 = -1)
	for i := 0; i < cnt; i++ {
		switch {
		case dS[i] == 0:
			keepID[i] = 0
		case dS[i] < inf && dpr[i] < inf && dS[i]+dpr[i] <= int32(gen.k):
			keepID[i] = int32(len(stageOrig))
			stageOrig = append(stageOrig, gen.rawNodes[i])
		default:
			keepID[i] = -1
		}
	}
	gen.stageOrig = stageOrig
	rootStage := keepID[rl]
	if rootStage <= 0 {
		return 0, 0, fmt.Errorf("root dropped during compression")
	}

	// Stage-2 edge list with super-seed contraction and root shortcuts.
	edges := gen.sEdges[:0]
	for i := 0; i < cnt; i++ {
		si := keepID[i]
		if si < 0 {
			continue
		}
		if si > 0 && si != rootStage && dpr[i] == 0 {
			// Live path to the root: outgoing edges replaced by a direct
			// live edge below.
			continue
		}
		for j := outStart[i]; j < outStart[int32(i)+1]; j++ {
			t := keepID[outTo[j]]
			if t <= 0 {
				continue // dropped, or edge into the super-seed
			}
			if si == 0 && t == 0 {
				continue
			}
			edges = append(edges, sEdge{from: si, to: t, boost: outBoost[j]})
		}
	}
	for i := 0; i < cnt; i++ {
		si := keepID[i]
		if si > 0 && si != rootStage && dpr[i] == 0 {
			edges = append(edges, sEdge{from: si, to: rootStage, boost: 0})
		}
	}

	// Dedup parallel edges (contraction can create them), preferring live
	// over live-upon-boost: sort packed (from, to, boost) keys — a total
	// order, so the unstable sort is deterministic — and keep the first
	// key of each (from, to) pair.
	keys := sizedDirty(&gen.sortKeys, len(edges))
	for i, e := range edges {
		keys[i] = uint64(e.from)<<33 | uint64(e.to)<<1 | uint64(e.boost)
	}
	slices.Sort(keys)
	edges = edges[:0]
	for i, k := range keys {
		if i > 0 && k>>1 == keys[i-1]>>1 {
			continue
		}
		edges = append(edges, sEdge{from: int32(k >> 33), to: int32(k >> 1 & 0xffffffff), boost: uint8(k & 1)})
	}
	gen.sEdges = edges

	// Keep only nodes on some super-seed→root chain: forward-reachable
	// from the super-seed and backward-reachable from the root, over all
	// (live + live-upon-boost) edges. Stage adjacency is a CSR over the
	// deduplicated edge list.
	ns := len(stageOrig)
	sOutStart := sized(&gen.sOutStart, ns+1)
	sInStart := sized(&gen.sInStart, ns+1)
	for _, e := range edges {
		sOutStart[e.from+1]++
		sInStart[e.to+1]++
	}
	for i := 0; i < ns; i++ {
		sOutStart[i+1] += sOutStart[i]
		sInStart[i+1] += sInStart[i]
	}
	sOutTo := sizedDirty(&gen.sOutTo, len(edges))
	sInFrom := sizedDirty(&gen.sInFrom, len(edges))
	outPos := sizedDirty(&gen.outPosF, ns)
	inPos := sizedDirty(&gen.inPosF, ns)
	copy(outPos, sOutStart[:ns])
	copy(inPos, sInStart[:ns])
	for _, e := range edges {
		sOutTo[outPos[e.from]] = e.to
		outPos[e.from]++
		sInFrom[inPos[e.to]] = e.from
		inPos[e.to]++
	}

	fwd := sized(&gen.fwd, ns)
	bwd := sized(&gen.bwd, ns)
	q := append(gen.q[:0], 0)
	fwd[0] = true
	for qi := 0; qi < len(q); qi++ {
		u := q[qi]
		for j := sOutStart[u]; j < sOutStart[u+1]; j++ {
			t := sOutTo[j]
			if !fwd[t] {
				fwd[t] = true
				q = append(q, t)
			}
		}
	}
	if !fwd[rootStage] {
		gen.q = q[:0]
		return 0, 0, fmt.Errorf("root unreachable from super-seed after contraction")
	}
	q = append(q[:0], rootStage)
	bwd[rootStage] = true
	for qi := 0; qi < len(q); qi++ {
		v := q[qi]
		for j := sInStart[v]; j < sInStart[v+1]; j++ {
			f := sInFrom[j]
			if !bwd[f] {
				bwd[f] = true
				q = append(q, f)
			}
		}
	}
	gen.q = q[:0]

	// Final renumbering.
	finalID := sizedDirty(&gen.finalID, ns)
	finalID[0] = 0
	finalOrig := append(gen.finalOrig[:0], -1)
	for s := 1; s < ns; s++ {
		if fwd[s] && bwd[s] {
			finalID[s] = int32(len(finalOrig))
			finalOrig = append(finalOrig, stageOrig[s])
		} else {
			finalID[s] = -1
		}
	}
	gen.finalOrig = finalOrig
	n := int32(len(finalOrig))

	// Final CSR (both directions), emitted straight into the arena.
	ref := prrRef{
		root:     finalID[rootStage],
		nodeOff:  int32(len(a.orig)),
		numNodes: n,
		startOff: int32(len(a.outStart)),
		edgeOff:  int32(len(a.outTo)),
	}
	a.orig = append(a.orig, finalOrig...)
	a.outStart = grown(a.outStart, int(n)+1)
	a.inStart = grown(a.inStart, int(n)+1)
	rOutStart := a.outStart[ref.startOff:]
	rInStart := a.inStart[ref.startOff:]
	kept := 0
	for _, e := range edges {
		if finalID[e.from] >= 0 && finalID[e.to] >= 0 {
			rOutStart[finalID[e.from]+1]++
			rInStart[finalID[e.to]+1]++
			kept++
		}
	}
	for i := int32(0); i < n; i++ {
		rOutStart[i+1] += rOutStart[i]
		rInStart[i+1] += rInStart[i]
	}
	ref.numEdges = int32(kept)
	a.outTo = grown(a.outTo, kept)
	a.outBoost = grown(a.outBoost, kept)
	a.inFrom = grown(a.inFrom, kept)
	a.inBoost = grown(a.inBoost, kept)
	rOutTo := a.outTo[ref.edgeOff:]
	rOutBoost := a.outBoost[ref.edgeOff:]
	rInFrom := a.inFrom[ref.edgeOff:]
	rInBoost := a.inBoost[ref.edgeOff:]
	outPosF := outPos[:n]
	inPosF := inPos[:n]
	copy(outPosF, rOutStart[:n])
	copy(inPosF, rInStart[:n])
	for _, e := range edges {
		f, t := finalID[e.from], finalID[e.to]
		if f < 0 || t < 0 {
			continue
		}
		rOutTo[outPosF[f]] = t
		rOutBoost[outPosF[f]] = e.boost
		outPosF[f]++
		rInFrom[inPosF[t]] = f
		rInBoost[inPosF[t]] = e.boost
		inPosF[t]++
	}

	R := a.view(&ref)
	if err := R.validate(); err != nil {
		return 0, 0, err
	}

	// Critical nodes from the compressed structure.
	_, cands := R.Candidates(gen.emptyMask, gen.scratch)
	ref.critOff = int32(len(a.critical))
	a.critical = append(a.critical, cands...)
	crit := a.critical[ref.critOff:]
	slices.Sort(crit)
	ref.numCrit = int32(len(crit))
	a.refs = append(a.refs, ref)
	return len(crit), kept, nil
}
