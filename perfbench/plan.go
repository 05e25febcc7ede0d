package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"

	"github.com/kboost/kboost/internal/approx"
	"github.com/kboost/kboost/internal/dataset"
	"github.com/kboost/kboost/internal/engine"
	"github.com/kboost/kboost/internal/graph"
)

// Request classes. A class fixes the work the engine must do for a
// request; the checker holds every response to it.
const (
	clsHit     = "hit"       // repeated boost, answered by the result cache
	clsSelIC   = "select_ic" // first-seen (k, prefilter) pair on a warm ic pool: runs selection
	clsSelLB   = "select_lb" // the same on a warm lb pool
	clsLTEst   = "lt_est"    // lt tier-2 estimate on a warm pool
	clsT0Lat   = "t0_lat"    // ic estimate with only a latency cap: tier 0
	clsT0Err   = "t0_err"    // ic max_error estimate the calibration serves at tier 0
	clsT1Err   = "t1_err"    // ic max_error estimate the calibration serves at tier 1
	clsColdIC  = "cold_ic"   // cold_*: a boost on a seed set no earlier request used
	clsColdLB  = "cold_lb"
	clsColdLT  = "cold_lt"
	clsColdSIR = "cold_sir"
	clsColdKT  = "cold_kthresh"
	clsSeeds   = "seeds"    // IMM seed selection: a per-request RR-set pool
	clsICEst   = "ic_est"   // knobless ic estimate: tier-2 Monte-Carlo with small sims
	clsPatch   = "patch"    // PATCH reweighting ~0.5% of the pooled graph's edges
	clsICBoost = "ic_boost" // boost on the patched graph's ic pool
	clsLTBoost = "lt_boost" // boost on the patched graph's lt pool
	clsWrite   = "write"    // PATCH of the client's own pool-free scratch graph
)

// share is one class's request count in a workload block.
type share struct {
	class string
	n     int
}

// workload is one traffic mix.
type workload struct {
	name string
	// dataset and scale name the stand-in the pooled requests use. The
	// graph has a fixed seed: the workload seed varies the requests,
	// never the graph.
	dataset string
	scale   float64
	// rate is requests per nominal second. A run sends rate × --seconds
	// requests however fast it goes, so every run of a seed does the
	// same work.
	rate float64
	// maxClients caps the closed loop below min(nproc, cold lane); 0
	// leaves it there.
	maxClients int
	// block is the class mix of one block. Each client runs whole
	// blocks, each shuffled, unless ordered (a fixed cycle).
	block   []share
	ordered bool
}

// The shares keep p50 and p99 inside a class rather than on the step
// between two: the fast classes (hit, t0_*) hold well over half of the
// warm reads, and the slowest class of each mix holds well over 1%.
var workloads = []*workload{
	{
		name: "warm_reads", dataset: "digg", scale: 0.02, rate: 1400,
		// Three pools per client (ic, lb, lt) must fit the 8-pool LRU.
		maxClients: 2,
		block: []share{
			{clsHit, 35}, {clsT0Lat, 14}, {clsT0Err, 14}, {clsSelIC, 10}, {clsSelLB, 10},
			{clsLTEst, 8}, {clsT1Err, 6}, {clsWrite, 3},
		},
	},
	{
		name: "cold_builds", dataset: "digg", scale: 0.02, rate: 130,
		block: []share{
			{clsICEst, 25}, {clsColdKT, 5}, {clsSeeds, 8}, {clsColdSIR, 8},
			{clsColdLT, 8}, {clsColdLB, 10}, {clsColdIC, 14}, {clsWrite, 22},
		},
	},
	{
		name: "patch_churn", dataset: "flickr", scale: 0.01, rate: 400,
		maxClients: 1, ordered: true,
		block: []share{{clsPatch, 1}, {clsICBoost, 1}, {clsLTBoost, 1}, {clsLTEst, 1}},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want warm_reads, cold_builds or patch_churn)", name)
}

func (w *workload) blockLen() int {
	n := 0
	for _, s := range w.block {
		n += s.n
	}
	return n
}

func (w *workload) has(class string) bool {
	for _, s := range w.block {
		if s.class == class {
			return true
		}
	}
	return false
}

// Request parameters. Every pool has a fixed size (max_samples or sims)
// that the requests reading it never exceed, so no timed request grows a
// pool; every PRR cap sits below IMM's sample target, so a build
// generates exactly the cap.
const (
	graphSeed    = 1
	beta         = 2.0
	scratchScale = 0.005 // per-client digg stand-in that only writes touch
	patchShare   = 0.005 // share of a graph's edges one PATCH reweights

	warmSeeds   = 5    // seed-set size of each warm_reads client
	warmKMax    = 8    // prewarmed pools serve k = 1..warmKMax
	warmSamples = 8000 // max_samples of every warm ic/lb request
	warmSims    = 2000 // profiles of each warm lt pool
	warmPreMax  = 300  // largest prefilter a select request sends
	warmCalSims = 2000 // tier-2 sims of the setup calibration
	warmLatCap  = 100  // max_latency_ms of latency-only estimates
	warmTop     = 60   // seed sets come from the warmTop most influential nodes

	coldSeeds   = 3
	coldK       = 5
	coldSamples = 1000 // max_samples of cold ic/lb builds
	coldTop     = 80
	seedsK      = 5
	seedsCap    = 1000 // max_samples of /v1/seeds requests
	icEstSims   = 100

	patchSeeds   = 5
	patchK       = 5
	patchSamples = 5000
	patchSims    = 2000
	patchTop     = 3000
)

// coldSims is the profile count of each cold sim-mode build.
var coldSims = map[string]int{"lt": 500, "sir": 250, "kthresh": 200}

// request is one planned request. Exactly one of boost, est, seeds and
// patch is set; body is its JSON encoding.
type request struct {
	seq    int // index over the whole run; spans of one request share it
	client int
	class  string
	path   string
	boost  *engine.BoostRequest
	est    *engine.EstimateRequest
	seeds  *engine.SeedsRequest
	patch  *patchReq
	body   []byte
}

type patchReq struct {
	graph string
	delta deltaJSON
}

// deltaJSON is the body of PATCH /v1/graphs/{name}/edges.
type deltaJSON struct {
	Reweight []edgeJSON `json:"reweight"`
}

type edgeJSON struct {
	From   int32   `json:"from"`
	To     int32   `json:"to"`
	P      float64 `json:"p"`
	PBoost float64 `json:"p_boost"`
}

func (d deltaJSON) edgeDelta() *graph.EdgeDelta {
	out := &graph.EdgeDelta{}
	for _, e := range d.Reweight {
		out.Reweight = append(out.Reweight, graph.Edge{From: e.From, To: e.To, P: e.P, PBoost: e.PBoost})
	}
	return out
}

type namedGraph struct {
	id string
	g  *graph.Graph
}

func scratchID(c int) string { return "scratch-" + strconv.Itoa(c) }

// graphs generates the workload's graphs: the pooled stand-in, then one
// scratch graph per client when the mix writes.
func (w *workload) graphs(clients int) ([]namedGraph, error) {
	spec, err := dataset.ByName(w.dataset)
	if err != nil {
		return nil, err
	}
	g, err := spec.Generate(w.scale, beta, graphSeed)
	if err != nil {
		return nil, err
	}
	out := []namedGraph{{w.dataset, g}}
	if w.has(clsWrite) {
		s, err := dataset.Digg.Generate(scratchScale, beta, graphSeed)
		if err != nil {
			return nil, err
		}
		// Snapshots are immutable, so the clients can start from one graph.
		for c := 0; c < clients; c++ {
			out = append(out, namedGraph{scratchID(c), s})
		}
	}
	return out, nil
}

// plan is a run's whole input, derived from the workload seed.
type plan struct {
	w       *workload
	seed    uint64
	seconds int
	clients int
	graphs  []namedGraph
	// setup is the prewarm boost sequence, run in order against the engine.
	setup []engine.BoostRequest
	// pools lists, per client, the setup boosts that build a pool the
	// client's timed requests read.
	pools [][]engine.BoostRequest
	// calib is the operand of the warm_reads tier calibration.
	calib *engine.EstimateRequest
	reqs  [][]*request // per client, in send order
	all   []*request   // by seq
	// maxErr holds the max_error values the calibration serves at tier 0
	// and tier 1; settled marks them known.
	maxErr  [2]float64
	settled bool
}

// newPlan derives the request sequence of one run. The t0_err and
// t1_err bodies are completed by settle once setup has calibrated.
func newPlan(w *workload, seed uint64, seconds, clients int) (*plan, error) {
	gs, err := w.graphs(clients)
	if err != nil {
		return nil, err
	}
	p := &plan{w: w, seed: seed, seconds: seconds, clients: clients, graphs: gs,
		pools: make([][]engine.BoostRequest, clients), reqs: make([][]*request, clients)}
	blocks := int(math.Round(w.rate * float64(seconds) / float64(clients*w.blockLen())))
	if blocks < 1 {
		blocks = 1
	}
	pl := &planner{p: p, g: gs[0].g, r: rand.New(rand.NewPCG(seed, 0x6b626f6f7374)),
		fixed: rand.New(rand.NewPCG(graphSeed, 0x706f6f6c73)), used: map[string]bool{}}
	pl.start()
	for c := 0; c < clients; c++ {
		for b := 0; b < blocks; b++ {
			for _, class := range pl.blockClasses() {
				r, err := pl.request(c, class)
				if err != nil {
					return nil, err
				}
				r.seq, r.client, r.class = len(p.all), c, class
				p.all = append(p.all, r)
				p.reqs[c] = append(p.reqs[c], r)
			}
		}
	}
	return p, p.encode()
}

// settle records the max_error values a setup's calibration serves at
// tier 0 and tier 1 and encodes them into the t0_err and t1_err
// requests. Every later setup must calibrate to the same values.
func (p *plan) settle(maxErr [2]float64) error {
	if p.settled {
		if maxErr != p.maxErr {
			return fmt.Errorf("setup calibrated to max_error %v, an earlier setup to %v", maxErr, p.maxErr)
		}
		return nil
	}
	p.maxErr, p.settled = maxErr, true
	for _, r := range p.all {
		switch r.class {
		case clsT0Err:
			r.est.MaxError = maxErr[0]
		case clsT1Err:
			r.est.MaxError = maxErr[1]
		}
	}
	return p.encode()
}

func (p *plan) encode() error {
	for _, r := range p.all {
		var v any
		switch {
		case r.boost != nil:
			v = r.boost
		case r.est != nil:
			v = r.est
		case r.seeds != nil:
			v = r.seeds
		default:
			v = r.patch.delta
		}
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		r.body = b
	}
	return nil
}

// digest fingerprints the request sequence.
func (p *plan) digest() string {
	h := sha256.New()
	for _, r := range p.all {
		fmt.Fprintf(h, "%d %s %s %s\n", r.client, r.class, r.path, r.body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (p *plan) readsWrites() (reads, writes int) {
	for _, r := range p.all {
		if r.patch != nil {
			writes++
		} else {
			reads++
		}
	}
	return reads, writes
}

func (p *plan) classCounts() map[string]int {
	out := map[string]int{}
	for _, r := range p.all {
		out[r.class]++
	}
	return out
}

// planner draws the requests. Every client owns its seed sets, and so
// its pools and result-cache keys: no request changes state that
// another client's requests read.
type planner struct {
	p *plan
	g *graph.Graph
	r *rand.Rand
	// fixed draws what setup builds — the pooled seed sets, pool RNG
	// seeds and calibration operands — the same for every workload seed:
	// with only one or two pooled seed sets per run, drawing them from
	// the workload seed would change how much work a run does.
	fixed *rand.Rand
	used  map[string]bool // seed sets taken, by canonical key
	top   []int32         // seed candidates: the most influential nodes

	seedSet  [][]int32
	poolSeed []uint64
	pairs    [][2][][2]int           // warm_reads: per client and PRR mode, unused (k, prefilter) pairs
	hits     [][]engine.BoostRequest // warm_reads: per client, the prewarm boosts a hit repeats
	scratch  []graph.Edge            // scratch graph edges a write reweights
	edges    []graph.Edge            // pooled graph edges a patch reweights
}

var prrModes = [2]string{"ic", "lb"}

func (pl *planner) start() {
	p := pl.p
	if p.w.has(clsWrite) {
		pl.scratch = p.graphs[1].g.Edges()
	}
	switch p.w.name {
	case "warm_reads":
		pl.top = dataset.InfluentialSeeds(pl.g, warmTop)
		for c := 0; c < p.clients; c++ {
			s := pl.seedSetFrom(pl.fixed, warmSeeds)
			pl.seedSet = append(pl.seedSet, s)
			pl.poolSeed = append(pl.poolSeed, 1+pl.fixed.Uint64N(1<<31))
			var hits []engine.BoostRequest
			for _, mode := range []string{"ic", "lb", "lt"} {
				// Largest k first: that boost builds the pool, and the smaller
				// ones size it for every k and fill the result cache.
				for k := warmKMax; k >= 1; k-- {
					b := engine.BoostRequest{GraphID: p.w.dataset, Seeds: s, K: k, Mode: mode, Seed: pl.poolSeed[c]}
					if mode == "lt" {
						b.Sims = warmSims
					} else {
						b.MaxSamples = warmSamples
					}
					if k == warmKMax {
						p.pools[c] = append(p.pools[c], b)
					}
					hits = append(hits, b)
				}
			}
			p.setup = append(p.setup, hits...)
			pl.hits = append(pl.hits, hits)
			// Each select request takes a (k, prefilter) pair never sent
			// before, so the share that runs selection stays constant. A
			// prefilter up to the two-hop shortlist's length is honoured; a
			// longer one would fall back to the cached exact slot.
			preMax := min(warmPreMax, len(approx.BoostCandidates(pl.g, s, pl.g.N(), nil)))
			var pairs [2][][2]int
			for m := range prrModes {
				for k := 1; k <= warmKMax; k++ {
					for pre := k; pre <= preMax; pre++ {
						pairs[m] = append(pairs[m], [2]int{k, pre})
					}
				}
				pl.r.Shuffle(len(pairs[m]), func(i, j int) { pairs[m][i], pairs[m][j] = pairs[m][j], pairs[m][i] })
			}
			pl.pairs = append(pl.pairs, pairs)
		}
		p.calib = &engine.EstimateRequest{GraphID: p.w.dataset, Seeds: pl.seedSet[0],
			Boost: pl.boostSet(pl.fixed, pl.seedSet[0], warmKMax), MaxError: 0.5, Sims: warmCalSims, Seed: 1}
	case "cold_builds":
		pl.top = dataset.InfluentialSeeds(pl.g, coldTop)
		// Setup runs one build per mode on a seed set no timed request
		// uses, so every code path is warm before timing starts.
		s := pl.seedSetFrom(pl.fixed, coldSeeds)
		for _, class := range []string{clsColdIC, clsColdLB, clsColdLT, clsColdSIR, clsColdKT} {
			p.setup = append(p.setup, *pl.coldBoost(pl.fixed, class, s))
		}
	case "patch_churn":
		pl.top = dataset.InfluentialSeeds(pl.g, patchTop)
		pl.edges = pl.g.Edges()
		pl.seedSet = append(pl.seedSet, pl.seedSetFrom(pl.fixed, patchSeeds))
		pl.poolSeed = append(pl.poolSeed, 1+pl.fixed.Uint64N(1<<31))
		ic, lt := pl.patchBoost(0, "ic"), pl.patchBoost(0, "lt")
		p.setup = append(p.setup, ic, lt)
		p.pools[0] = append(p.pools[0], ic, lt)
	}
}

// blockClasses returns one block of the mix, shuffled unless ordered.
func (pl *planner) blockClasses() []string {
	var out []string
	for _, s := range pl.p.w.block {
		for i := 0; i < s.n; i++ {
			out = append(out, s.class)
		}
	}
	if !pl.p.w.ordered {
		pl.r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}

// seedSetFrom draws a sorted seed set of size n from the influential
// candidates, distinct from every set drawn before.
func (pl *planner) seedSetFrom(r *rand.Rand, n int) []int32 {
	for {
		s := make([]int32, n)
		for i, j := range r.Perm(len(pl.top))[:n] {
			s[i] = pl.top[j]
		}
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		if key := fmt.Sprint(s); !pl.used[key] {
			pl.used[key] = true
			return s
		}
	}
}

// boostSet draws n distinct non-seed nodes, sorted.
func (pl *planner) boostSet(r *rand.Rand, seeds []int32, n int) []int32 {
	taken := map[int32]bool{}
	for _, s := range seeds {
		taken[s] = true
	}
	out := make([]int32, 0, n)
	for len(out) < n {
		v := int32(r.IntN(pl.g.N()))
		if !taken[v] {
			taken[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// reweight draws a delta that reweights patchShare of edges: each drawn
// edge gets a base probability within ±50% of its own, and the boosted
// probability 1-(1-p)^beta the stand-ins use.
func (pl *planner) reweight(edges []graph.Edge) deltaJSON {
	n := max(1, int(math.Round(patchShare*float64(len(edges)))))
	var d deltaJSON
	for _, i := range pl.r.Perm(len(edges))[:n] {
		e := edges[i]
		p := math.Min(0.999, e.P*(0.5+pl.r.Float64()))
		d.Reweight = append(d.Reweight, edgeJSON{From: e.From, To: e.To, P: p, PBoost: 1 - math.Pow(1-p, beta)})
	}
	return d
}

func (pl *planner) coldBoost(r *rand.Rand, class string, seeds []int32) *engine.BoostRequest {
	b := &engine.BoostRequest{GraphID: pl.p.w.dataset, Seeds: seeds, K: coldK, Seed: 1 + r.Uint64N(1<<31)}
	switch class {
	case clsColdIC:
		b.Mode, b.MaxSamples = "ic", coldSamples
	case clsColdLB:
		b.Mode, b.MaxSamples = "lb", coldSamples
	case clsColdLT:
		b.Mode = "lt"
	case clsColdSIR:
		b.Mode = "sir"
	case clsColdKT:
		b.Mode = "kthresh"
	}
	b.Sims = coldSims[b.Mode]
	return b
}

func (pl *planner) patchBoost(c int, mode string) engine.BoostRequest {
	b := engine.BoostRequest{GraphID: pl.p.w.dataset, Seeds: pl.seedSet[c], K: patchK, Mode: mode, Seed: pl.poolSeed[c]}
	if mode == "lt" {
		b.Sims = patchSims
	} else {
		b.MaxSamples = patchSamples
	}
	return b
}

// request draws client c's next request of the given class.
func (pl *planner) request(c int, class string) (*request, error) {
	ds := pl.p.w.dataset
	switch class {
	case clsHit:
		b := pl.hits[c][pl.r.IntN(len(pl.hits[c]))]
		return &request{path: "/v1/boost", boost: &b}, nil
	case clsSelIC, clsSelLB:
		m := 0
		if class == clsSelLB {
			m = 1
		}
		if len(pl.pairs[c][m]) == 0 {
			return nil, fmt.Errorf("%s: client %d ran out of unused (k, prefilter) pairs", class, c)
		}
		kp := pl.pairs[c][m][0]
		pl.pairs[c][m] = pl.pairs[c][m][1:]
		return &request{path: "/v1/boost", boost: &engine.BoostRequest{GraphID: ds, Seeds: pl.seedSet[c], K: kp[0],
			Mode: prrModes[m], Seed: pl.poolSeed[c], MaxSamples: warmSamples, Prefilter: kp[1]}}, nil
	case clsLTEst:
		k := warmKMax
		if pl.p.w.name == "patch_churn" {
			k = patchK
		}
		s := pl.seedSet[c]
		return &request{path: "/v1/estimate", est: &engine.EstimateRequest{GraphID: ds, Seeds: s,
			Boost: pl.boostSet(pl.r, s, 1+pl.r.IntN(k)), Mode: "lt"}}, nil
	case clsT0Lat, clsT0Err, clsT1Err:
		s := pl.seedSet[c]
		e := &engine.EstimateRequest{GraphID: ds, Seeds: s, Boost: pl.boostSet(pl.r, s, 1+pl.r.IntN(warmKMax)),
			Seed: 1 + pl.r.Uint64N(1<<31)}
		if class == clsT0Lat {
			e.MaxLatencyMS = warmLatCap
		}
		return &request{path: "/v1/estimate", est: e}, nil
	case clsColdIC, clsColdLB, clsColdLT, clsColdSIR, clsColdKT:
		return &request{path: "/v1/boost", boost: pl.coldBoost(pl.r, class, pl.seedSetFrom(pl.r, coldSeeds))}, nil
	case clsSeeds:
		return &request{path: "/v1/seeds", seeds: &engine.SeedsRequest{GraphID: ds, K: seedsK,
			Seed: 1 + pl.r.Uint64N(1<<31), MaxSamples: seedsCap}}, nil
	case clsICEst:
		s := pl.seedSetFrom(pl.r, coldSeeds)
		return &request{path: "/v1/estimate", est: &engine.EstimateRequest{GraphID: ds, Seeds: s,
			Boost: pl.boostSet(pl.r, s, coldK), Sims: icEstSims, Seed: 1 + pl.r.Uint64N(1<<31)}}, nil
	case clsPatch:
		return &request{path: "/v1/graphs/" + ds + "/edges", patch: &patchReq{graph: ds, delta: pl.reweight(pl.edges)}}, nil
	case clsICBoost:
		b := pl.patchBoost(c, "ic")
		return &request{path: "/v1/boost", boost: &b}, nil
	case clsLTBoost:
		b := pl.patchBoost(c, "lt")
		return &request{path: "/v1/boost", boost: &b}, nil
	case clsWrite:
		id := scratchID(c)
		return &request{path: "/v1/graphs/" + id + "/edges", patch: &patchReq{graph: id, delta: pl.reweight(pl.scratch)}}, nil
	}
	return nil, fmt.Errorf("unknown request class %q", class)
}
