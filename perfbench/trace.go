package main

// The traced run replays one plan four times:
//
//  1. untraced, on a fresh stack: the baseline for the tracing overhead;
//  2. traced, on a fresh stack: the client times each round trip
//     (client span) and a handler wrapping (*engine.Server).ServeHTTP
//     times the server span;
//  3. straight against Engine.*Context, on an identically set-up
//     engine, with the same clients: the engine span;
//  4. against the public kernel calls, one per operation the traced
//     replies say the engine did, on pools built from the same seeds
//     and worker count, which makes them bit-identical to the engine's:
//     the kernel spans.
//
// Spans of one request share its sequence index. A layer's self time is
// its span minus its children's: client − server, server − engine,
// engine − Σ kernel.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/kboost/kboost/internal/approx"
	"github.com/kboost/kboost/internal/core"
	"github.com/kboost/kboost/internal/diffusion"
	"github.com/kboost/kboost/internal/engine"
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/model"
	"github.com/kboost/kboost/internal/prr"
	"github.com/kboost/kboost/internal/rrset"
	"github.com/kboost/kboost/internal/stats"
)

// repairFallback is the engine's default RepairFallbackFraction.
const repairFallback = 0.5

// kspan is one kernel call's span.
type kspan struct {
	layer string
	d     time.Duration
	work  float64 // samples, profiles, sims or sets produced, for the rate metrics
}

type traceLog struct {
	server    []atomic.Int64 // ns, by seq
	respBytes []atomic.Int64 // by seq
	engine    []time.Duration
	kernel    [][]kspan
	// setup holds the kernel builds of the replayed prewarm.
	setup            []kspan
	bytesPerSample   []float64
	repairedSketches int
	repairedProfiles int
}

func newTraceLog(n int) *traceLog {
	return &traceLog{server: make([]atomic.Int64, n), respBytes: make([]atomic.Int64, n),
		engine: make([]time.Duration, n), kernel: make([][]kspan, n)}
}

// wrap times (*engine.Server).ServeHTTP for every request carrying a
// sequence index, and counts its reply bytes.
func (tl *traceLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq, err := strconv.Atoi(r.Header.Get(seqHeader))
		if err != nil || seq < 0 || seq >= len(tl.server) {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		t0 := time.Now()
		h.ServeHTTP(cw, r)
		tl.server[seq].Store(int64(time.Since(t0)))
		tl.respBytes[seq].Store(cw.n)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

// executeTraced makes the traced run and reports the per-layer metrics.
func executeTraced(w *workload, seed uint64, cfg config, spanDir string) (*report, error) {
	p, err := newRunPlan(w, seed, cfg)
	if err != nil {
		return nil, err
	}
	stA, setupS, err := setUpRepeated(p, 1, nil)
	if err != nil {
		return nil, err
	}
	phA, err := stA.drive(p, false)
	if cerr := stA.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	tl := newTraceLog(len(p.all))
	stB, _, err := setUpRepeated(p, 1, tl.wrap)
	if err != nil {
		return nil, err
	}
	phB, err := stB.drive(p, true)
	if err != nil {
		stB.close()
		return nil, err
	}
	ck, final, err := verify(p, stB, phB)
	if cerr := stB.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	runtime.GC()
	stC, err := setUp(p, false, nil)
	if err != nil {
		return nil, err
	}
	ck.record(tl.replayEngine(p, stC, ck))

	runtime.GC()
	notes, err := tl.replayKernels(p, ck)
	if err != nil {
		return nil, err
	}
	ck.record(notes)

	rep := newReport(p, ck, final, setupS)
	rep.res.Metrics = tl.layerMetrics(p, ck, phA, phB, stB.after, final)
	tl.summary(os.Stderr, p, ck, phB, rep.res.Metrics, stB.after, final)
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-%d.csv", w.name, seed))
	if err := tl.writeSpans(path, p, phB); err != nil {
		return nil, err
	}
	return rep, nil
}

// mismatch is a replay's disagreement with the traced reply.
type mismatch struct {
	seq int
	msg string
}

func (ck *checker) record(ms []mismatch) {
	for _, m := range ms {
		ck.fail(ck.p.all[m.seq], "%s", m.msg)
	}
}

// replayEngine replays the plan against the engine directly, one
// goroutine per client as in the timed phase, and records the engine
// spans. Every answer must equal the traced reply.
func (tl *traceLog) replayEngine(p *plan, st *stack, ck *checker) []mismatch {
	ctx := context.Background()
	notes := make([][]mismatch, p.clients)
	var wg sync.WaitGroup
	for c := range notes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range p.reqs[c] {
				var delta *graph.EdgeDelta
				if r.patch != nil {
					delta = r.patch.delta.edgeDelta()
				}
				var msg string
				t0 := time.Now()
				switch {
				case r.boost != nil:
					res, err := st.eng.BoostContext(ctx, *r.boost)
					tl.engine[r.seq] = time.Since(t0)
					if b := ck.boost[r.seq]; err != nil || (b != nil && !sameBoost(b, res.BoostSet, res.EstBoost)) {
						msg = fmt.Sprintf("engine replay boost differs from the reply (err %v)", err)
					}
				case r.est != nil:
					res, err := st.eng.EstimateContext(ctx, *r.est)
					tl.engine[r.seq] = time.Since(t0)
					if e := ck.est[r.seq]; err != nil || (e != nil && !sameEstimate(e, res.Spread, res.Boost)) {
						msg = fmt.Sprintf("engine replay estimate differs from the reply (err %v)", err)
					}
				case r.seeds != nil:
					res, err := st.eng.SelectSeedsContext(ctx, *r.seeds)
					tl.engine[r.seq] = time.Since(t0)
					if s := ck.seeds[r.seq]; err != nil || (s != nil && !slices.Equal(s.Seeds, res.Seeds)) {
						msg = fmt.Sprintf("engine replay seeds differ from the reply (err %v)", err)
					}
				default:
					res, err := st.eng.RepairGraphContext(ctx, r.patch.graph, delta)
					tl.engine[r.seq] = time.Since(t0)
					if rr := ck.repair[r.seq]; err != nil || (rr != nil && !sameRepair(rr, &res)) {
						msg = fmt.Sprintf("engine replay patch differs from the reply (err %v)", err)
					}
				}
				if msg != "" {
					notes[c] = append(notes[c], mismatch{r.seq, msg})
				}
			}
		}()
	}
	wg.Wait()
	return slices.Concat(notes...)
}

func sameBoost(b *boostResp, set []int32, est float64) bool {
	return slices.Equal(b.BoostSet, set) && sameFloat(b.EstBoost, est)
}

func sameEstimate(e *engine.EstimateResult, spread, boost float64) bool {
	return sameFloat(e.Spread, spread) && sameFloat(e.Boost, boost)
}

func sameRepair(a, b *engine.RepairResult) bool {
	return a.Version == b.Version && a.PoolsRepaired == b.PoolsRepaired && a.PoolsDropped == b.PoolsDropped &&
		a.RepairedSketches == b.RepairedSketches && a.RepairedProfiles == b.RepairedProfiles
}

// replayKernels replays every operation the traced replies report
// against the public kernel calls, one goroutine per client.
func (tl *traceLog) replayKernels(p *plan, ck *checker) ([]mismatch, error) {
	ks := make([]*kclient, p.clients)
	errs := make([]error, p.clients)
	var wg sync.WaitGroup
	for c := range ks {
		k := &kclient{ck: ck, tl: tl, ctx: context.Background(), w: runtime.GOMAXPROCS(0),
			graphs: map[string]*graph.Graph{}, prr: map[string]*prr.Pool{}, sim: map[string]model.Pool{}}
		for _, ng := range p.graphs {
			k.graphs[ng.id] = ng.g
		}
		ks[c] = k
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = k.run(p.pools[c], p.reqs[c])
		}()
	}
	wg.Wait()
	var notes []mismatch
	for c, k := range ks {
		if errs[c] != nil {
			return nil, errs[c]
		}
		notes = append(notes, k.notes...)
		tl.setup = append(tl.setup, k.setup...)
		tl.bytesPerSample = append(tl.bytesPerSample, k.bps...)
		tl.repairedSketches += k.sketches
		tl.repairedProfiles += k.profiles
	}
	return notes, nil
}

// kclient is one client's kernel replay state: the graphs as its
// PATCHes left them, and its pools.
type kclient struct {
	ck     *checker
	tl     *traceLog
	ctx    context.Context
	w      int
	graphs map[string]*graph.Graph
	prr    map[string]*prr.Pool  // by mode
	sim    map[string]model.Pool // by mode

	setup              []kspan
	bps                []float64
	sketches, profiles int
	notes              []mismatch
}

func (k *kclient) span(seq int, layer string, t0 time.Time, work float64) {
	s := kspan{layer: layer, d: time.Since(t0), work: work}
	if seq < 0 {
		k.setup = append(k.setup, s)
		return
	}
	k.tl.kernel[seq] = append(k.tl.kernel[seq], s)
}

func (k *kclient) differs(r *request, format string, args ...any) {
	k.notes = append(k.notes, mismatch{r.seq, "kernel replay: " + fmt.Sprintf(format, args...)})
}

func (k *kclient) run(pools []engine.BoostRequest, reqs []*request) error {
	for i := range pools {
		if err := k.build(-1, &pools[i]); err != nil {
			return fmt.Errorf("kernel replay of the prewarm: %w", err)
		}
	}
	for _, r := range reqs {
		if err := k.replay(r); err != nil {
			return fmt.Errorf("kernel replay of request %d (%s): %w", r.seq, r.class, err)
		}
	}
	return nil
}

func (k *kclient) prrOpt(req *engine.BoostRequest) core.Options {
	return core.Options{K: req.K, Epsilon: req.Epsilon, Ell: req.Ell, Seed: req.Seed, Workers: k.w, MaxSamples: req.MaxSamples}
}

// build makes the pool req names, as the engine's cold path does.
func (k *kclient) build(seq int, req *engine.BoostRequest) error {
	g := k.graphs[req.GraphID]
	if req.Mode == "ic" || req.Mode == "lb" {
		mode := prr.ModeFull
		if req.Mode == "lb" {
			mode = prr.ModeLB
		}
		t0 := time.Now()
		pool, err := core.BuildPoolContext(k.ctx, g, req.Seeds, k.prrOpt(req), mode)
		if err != nil {
			return err
		}
		k.span(seq, "prr.build", t0, float64(pool.Size()))
		k.bps = append(k.bps, float64(pool.MemoryEstimate())/float64(pool.Size()))
		k.prr[req.Mode] = pool
		return nil
	}
	m, err := model.New(req.Mode, model.Params{})
	if err != nil {
		return err
	}
	t0 := time.Now()
	pool, err := m.NewPool(g, req.Seeds, req.Seed, k.w)
	if err == nil {
		err = pool.ExtendContext(k.ctx, req.Sims)
	}
	if err != nil {
		return err
	}
	k.span(seq, "sim."+req.Mode+".build", t0, float64(req.Sims))
	k.sim[req.Mode] = pool
	return nil
}

func (k *kclient) selectPRR(r *request) error {
	req := r.boost
	opt := k.prrOpt(req)
	if req.Prefilter > 0 {
		t0 := time.Now()
		cands := approx.BoostCandidates(k.graphs[req.GraphID], req.Seeds, req.Prefilter, nil)
		k.span(r.seq, "approx.candidates", t0, 0)
		if len(cands) >= req.Prefilter {
			opt.Candidates = cands
		}
	}
	t0 := time.Now()
	res, err := core.BoostFromPoolContext(k.ctx, k.prr[req.Mode], opt)
	if err != nil {
		return err
	}
	k.span(r.seq, "prr.select", t0, 0)
	k.compareBoost(r, res.BoostSet, res.EstBoost)
	return nil
}

func (k *kclient) selectSim(r *request) error {
	req := r.boost
	m, err := model.New(req.Mode, model.Params{})
	if err != nil {
		return err
	}
	t0 := time.Now()
	set, est, err := k.sim[req.Mode].GreedyBoostContext(k.ctx, req.K, m.CandidateCap(req.K, req.CandCap))
	if err != nil {
		return err
	}
	k.span(r.seq, "sim."+req.Mode+".select", t0, 0)
	k.compareBoost(r, set, est)
	return nil
}

func (k *kclient) compareBoost(r *request, set []int32, est float64) {
	if b := k.ck.boost[r.seq]; b != nil && !sameBoost(b, set, est) {
		k.differs(r, "boost set %v (%v), reply %v (%v)", set, est, b.BoostSet, b.EstBoost)
	}
}

func (k *kclient) compareEstimate(r *request, spread, boost float64) {
	if e := k.ck.est[r.seq]; e != nil && !sameEstimate(e, spread, boost) {
		k.differs(r, "estimate %v/%v, reply %v/%v", spread, boost, e.Spread, e.Boost)
	}
}

// replay redoes one request's kernel work.
func (k *kclient) replay(r *request) error {
	switch r.class {
	case clsHit:
		return nil // the result cache answered: no kernel ran
	case clsSelIC, clsSelLB:
		return k.selectPRR(r)
	case clsColdIC, clsColdLB:
		if err := k.build(r.seq, r.boost); err != nil {
			return err
		}
		return k.selectPRR(r)
	case clsColdLT, clsColdSIR, clsColdKT:
		if err := k.build(r.seq, r.boost); err != nil {
			return err
		}
		return k.selectSim(r)
	case clsICBoost:
		b := k.ck.boost[r.seq]
		switch {
		case b == nil:
			return nil
		case b.CacheHit:
			// A repaired pool lost its sizing memo, so the engine re-runs
			// the IMM sizing (growing nothing) before selecting.
			t0 := time.Now()
			added, err := core.GrowPoolContext(k.ctx, k.prr["ic"], k.prrOpt(r.boost))
			if err != nil {
				return err
			}
			k.span(r.seq, "prr.grow", t0, float64(added))
		default:
			if err := k.build(r.seq, r.boost); err != nil {
				return err
			}
		}
		return k.selectPRR(r)
	case clsLTBoost:
		b := k.ck.boost[r.seq]
		if b == nil {
			return nil
		}
		if !b.CacheHit {
			if err := k.build(r.seq, r.boost); err != nil {
				return err
			}
		}
		return k.selectSim(r)
	case clsLTEst:
		pool := k.sim["lt"]
		t0 := time.Now()
		spread, err := pool.EstimateSpread(r.est.Boost)
		if err != nil {
			return err
		}
		boost, err := pool.EstimateBoost(r.est.Boost)
		if err != nil {
			return err
		}
		k.span(r.seq, "sim.lt.estimate", t0, 0)
		k.compareEstimate(r, spread, boost)
	case clsT0Lat, clsT0Err:
		t0 := time.Now()
		spread, boost := approx.TwoHopBoost(k.graphs[r.est.GraphID], r.est.Seeds, r.est.Boost, nil)
		k.span(r.seq, "approx.twohop", t0, 0)
		k.compareEstimate(r, spread, boost)
	case clsT1Err:
		e := k.ck.est[r.seq]
		if e == nil || e.CI == nil {
			return nil
		}
		t0 := time.Now()
		ss, ds, err := diffusion.EstimateSamples(k.graphs[r.est.GraphID], r.est.Seeds, r.est.Boost,
			diffusion.Options{Sims: e.CI.Sims, Seed: r.est.Seed, Workers: k.w})
		if err != nil {
			return err
		}
		k.span(r.seq, "diffusion.mc", t0, float64(e.CI.Sims))
		k.compareEstimate(r, stats.Summarize(ss).Mean, stats.Summarize(ds).Mean)
	case clsICEst:
		g := k.graphs[r.est.GraphID]
		opt := diffusion.Options{Sims: r.est.Sims, Seed: r.est.Seed, Workers: k.w}
		t0 := time.Now()
		spread, err := diffusion.EstimateSpread(g, r.est.Seeds, r.est.Boost, opt)
		if err != nil {
			return err
		}
		boost, err := diffusion.EstimateBoost(g, r.est.Seeds, r.est.Boost, opt)
		if err != nil {
			return err
		}
		k.span(r.seq, "diffusion.mc", t0, float64(2*r.est.Sims))
		k.compareEstimate(r, spread, boost)
	case clsSeeds:
		q := r.seeds
		t0 := time.Now()
		res, err := rrset.SelectSeedsContext(k.ctx, k.graphs[q.GraphID], q.K,
			rrset.Options{Epsilon: q.Epsilon, Ell: q.Ell, Seed: q.Seed, Workers: k.w, MaxSamples: q.MaxSamples})
		if err != nil {
			return err
		}
		k.span(r.seq, "rrset.select", t0, float64(res.Samples))
		if s := k.ck.seeds[r.seq]; s != nil && !slices.Equal(s.Seeds, res.Seeds) {
			k.differs(r, "seeds %v, reply %v", res.Seeds, s.Seeds)
		}
	case clsWrite, clsPatch:
		return k.patch(r)
	}
	return nil
}

// patch applies a PATCH's delta and, for the pooled graph, repairs the
// client's pools or drops them, as RepairGraph does.
func (k *kclient) patch(r *request) error {
	id := r.patch.graph
	t0 := time.Now()
	g2, eff, err := k.graphs[id].ApplyDelta(r.patch.delta.edgeDelta())
	if err != nil {
		return err
	}
	k.span(r.seq, "graph.apply_delta", t0, 0)
	k.graphs[id] = g2
	if r.class != clsPatch {
		return nil
	}
	var got engine.RepairResult
	if pool := k.prr["ic"]; pool != nil {
		t0 := time.Now()
		touched, repaired, err := pool.Repair(g2, eff.DirtyIn, repairFallback)
		if err != nil {
			return err
		}
		k.span(r.seq, "prr.repair", t0, float64(touched))
		if repaired {
			got.PoolsRepaired++
			got.RepairedSketches += touched
		} else {
			got.PoolsDropped++
			delete(k.prr, "ic")
		}
	}
	if pool := k.sim["lt"]; pool != nil {
		rep, ok := pool.(model.Repairer)
		if !ok {
			return fmt.Errorf("the lt pool does not implement model.Repairer")
		}
		t0 := time.Now()
		touched, repaired, err := rep.Repair(g2, eff.DirtyOut, eff.DirtyIn, repairFallback)
		if err != nil {
			return err
		}
		k.span(r.seq, "sim.lt.repair", t0, float64(touched))
		if repaired {
			got.PoolsRepaired++
			got.RepairedProfiles += touched
		} else {
			got.PoolsDropped++
			delete(k.sim, "lt")
		}
	}
	k.sketches += got.RepairedSketches
	k.profiles += got.RepairedProfiles
	if rr := k.ck.repair[r.seq]; rr != nil {
		got.Version = rr.Version
		if !sameRepair(rr, &got) {
			k.differs(r, "repaired %d/dropped %d pools (%d sketches, %d profiles), reply %d/%d (%d, %d)",
				got.PoolsRepaired, got.PoolsDropped, got.RepairedSketches, got.RepairedProfiles,
				rr.PoolsRepaired, rr.PoolsDropped, rr.RepairedSketches, rr.RepairedProfiles)
		}
	}
	return nil
}

// engineClasses are the engine-span classes the per-layer metrics split
// engine self time by.
var engineClasses = []string{"hit", "select", "build", "estimate", "patch"}

func engineClass(r *request, ck *checker) string {
	switch {
	case r.patch != nil:
		return "patch"
	case r.est != nil:
		return "estimate"
	case r.seeds != nil:
		return "build"
	}
	b := ck.boost[r.seq]
	switch {
	case b == nil:
		return "failed"
	case b.ResultHit:
		return "hit"
	case b.CacheHit:
		return "select"
	}
	return "build"
}

// selfTimes splits each traced request's time into its layers' self
// times (ms).
type selfTimes struct {
	client, server, engine, kernel float64
}

func (tl *traceLog) self(r *request, ph *phase) selfTimes {
	client := ms(ph.out[r.seq].lat)
	server := ms(time.Duration(tl.server[r.seq].Load()))
	eng := ms(tl.engine[r.seq])
	var kern float64
	for _, s := range tl.kernel[r.seq] {
		kern += ms(s.d)
	}
	return selfTimes{client: client - server, server: server - eng, engine: eng - kern, kernel: kern}
}

// layerStats gathers every kernel span's duration (ms) by layer, and
// each layer's total work and seconds.
func (tl *traceLog) layerStats() (durs map[string][]float64, work map[string][2]float64) {
	durs = map[string][]float64{}
	work = map[string][2]float64{}
	add := func(s kspan) {
		durs[s.layer] = append(durs[s.layer], ms(s.d))
		w := work[s.layer]
		work[s.layer] = [2]float64{w[0] + s.work, w[1] + s.d.Seconds()}
	}
	for _, s := range tl.setup {
		add(s)
	}
	for _, ss := range tl.kernel {
		for _, s := range ss {
			add(s)
		}
	}
	return durs, work
}

func ratio(a, b int64) float64 { return ratio64(float64(a), float64(b)) }

func ratio64(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics computes every per-layer metric. A layer the workload
// does not exercise reports 0.
func (tl *traceLog) layerMetrics(p *plan, ck *checker, phA, phB *phase, before, after engine.Stats) map[string]metric {
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	var clientSelf, serverSelf []float64
	engSelf := map[string][]float64{}
	var respBytes float64
	boosts := int64(0)
	for _, r := range p.all {
		s := tl.self(r, phB)
		clientSelf = append(clientSelf, s.client)
		serverSelf = append(serverSelf, s.server)
		c := engineClass(r, ck)
		engSelf[c] = append(engSelf[c], s.engine)
		respBytes += float64(tl.respBytes[r.seq].Load())
		if r.boost != nil {
			boosts++
		}
	}
	set("client.self_ms.p50", "ms", quantile(clientSelf, 0.5))
	set("server.self_ms.p50", "ms", quantile(serverSelf, 0.5))
	set("server.self_ms.p99", "ms", quantile(serverSelf, 0.99))
	set("server.resp_bytes.mean", "bytes", respBytes/float64(len(p.all)))
	set("server.shed", "count", float64(after.RequestsShed-before.RequestsShed))
	set("server.degraded", "count", float64(after.DegradedEstimates-before.DegradedEstimates))

	for _, c := range engineClasses {
		set("engine."+c+".self_ms.p50", "ms", quantile(engSelf[c], 0.5))
	}
	hits, misses := after.PoolHits-before.PoolHits, after.PoolMisses-before.PoolMisses
	set("engine.pool_hit_ratio", "ratio", ratio(hits, hits+misses))
	set("engine.result_hit_ratio", "ratio", ratio(after.ResultHits-before.ResultHits, boosts))
	set("engine.evictions", "count", float64(after.Evictions-before.Evictions))
	set("engine.pool_mb", "MB", float64(after.PoolBytes)/(1<<20))
	rep, drop := after.RepairSkippedRebuilds-before.RepairSkippedRebuilds, after.RepairFallbackRebuilds-before.RepairFallbackRebuilds
	set("engine.repaired_ratio", "ratio", ratio(rep, rep+drop))

	durs, work := tl.layerStats()
	p50 := func(layer string) float64 { return quantile(durs[layer], 0.5) }
	rate := func(layer string) float64 { return ratio64(work[layer][0], work[layer][1]) }
	set("prr.build_ms.p50", "ms", p50("prr.build"))
	set("prr.build.samples_per_s", "1/s", rate("prr.build"))
	set("prr.bytes_per_sample", "bytes", mean(tl.bytesPerSample))
	set("prr.grow_ms.p50", "ms", p50("prr.grow"))
	set("prr.select_ms.p50", "ms", p50("prr.select"))
	set("prr.repair_ms.p50", "ms", p50("prr.repair"))
	set("prr.repaired_sketches", "count", float64(tl.repairedSketches))
	for _, mode := range model.Names() {
		set("sim."+mode+".build_ms.p50", "ms", p50("sim."+mode+".build"))
		set("sim."+mode+".profiles_per_s", "1/s", rate("sim."+mode+".build"))
		set("sim."+mode+".select_ms.p50", "ms", p50("sim."+mode+".select"))
	}
	set("sim.lt.estimate_ms.p50", "ms", p50("sim.lt.estimate"))
	set("sim.lt.repair_ms.p50", "ms", p50("sim.lt.repair"))
	set("sim.lt.repaired_profiles", "count", float64(tl.repairedProfiles))
	set("approx.twohop_us.p50", "us", 1000*p50("approx.twohop"))
	set("approx.candidates_us.p50", "us", 1000*p50("approx.candidates"))
	set("diffusion.mc_ms.p50", "ms", p50("diffusion.mc"))
	set("diffusion.sims_per_s", "1/s", rate("diffusion.mc"))
	set("rrset.select_ms.p50", "ms", p50("rrset.select"))
	set("rrset.sets_per_s", "1/s", rate("rrset.select"))
	set("graph.apply_delta_ms.p50", "ms", p50("graph.apply_delta"))
	set("gc.cycles", "count", float64(phB.gcCycles))
	set("gc.pause_ms.total", "ms", ms(phB.gcPause))

	readsA, _ := latencies(p, phA)
	readsB, _ := latencies(p, phB)
	set("trace.overhead_pct", "%", 100*(mean(readsB)/mean(readsA)-1))
	return m
}

// summary prints the trace per request class — each layer's self time —
// and every ratio with its base.
func (tl *traceLog) summary(w io.Writer, p *plan, ck *checker, ph *phase, m map[string]metric, before, after engine.Stats) {
	fmt.Fprintf(w, "trace: %s seed %d, %d requests from %d clients (p50 ms per class)\n", p.w.name, p.seed, len(p.all), p.clients)
	fmt.Fprintf(w, "  %-13s %6s %9s %12s %12s %12s %9s  kernel layers\n", "class", "n", "client", "client_self", "server_self", "engine_self", "kernel")
	for _, sh := range p.w.block {
		var client, cs, ss, es, ks []float64
		layers := map[string][]float64{}
		for _, r := range p.all {
			if r.class != sh.class {
				continue
			}
			s := tl.self(r, ph)
			client = append(client, ms(ph.out[r.seq].lat))
			cs, ss, es, ks = append(cs, s.client), append(ss, s.server), append(es, s.engine), append(ks, s.kernel)
			for _, k := range tl.kernel[r.seq] {
				layers[k.layer] = append(layers[k.layer], ms(k.d))
			}
		}
		var names []string
		for l := range layers {
			names = append(names, l)
		}
		slices.Sort(names)
		var lb []byte
		for _, l := range names {
			lb = fmt.Appendf(lb, " %s=%.3f", l, quantile(layers[l], 0.5))
		}
		fmt.Fprintf(w, "  %-13s %6d %9.3f %12.3f %12.3f %12.3f %9.3f %s\n", sh.class, len(client),
			quantile(client, 0.5), quantile(cs, 0.5), quantile(ss, 0.5), quantile(es, 0.5), quantile(ks, 0.5), lb)
	}
	boosts := 0
	for _, r := range p.all {
		if r.boost != nil {
			boosts++
		}
	}
	hits, misses := after.PoolHits-before.PoolHits, after.PoolMisses-before.PoolMisses
	fmt.Fprintf(w, "  engine.pool_hit_ratio = %d pool_hits / (%d pool_hits + %d pool_misses) = %.4f\n",
		hits, hits, misses, m["engine.pool_hit_ratio"].Value)
	fmt.Fprintf(w, "  engine.result_hit_ratio = %d result_hits / %d boost requests = %.4f\n",
		after.ResultHits-before.ResultHits, boosts, m["engine.result_hit_ratio"].Value)
	rep, drop := after.RepairSkippedRebuilds-before.RepairSkippedRebuilds, after.RepairFallbackRebuilds-before.RepairFallbackRebuilds
	fmt.Fprintf(w, "  engine.repaired_ratio = %d repaired / (%d repaired + %d dropped pools) = %.4f\n",
		rep, rep, drop, m["engine.repaired_ratio"].Value)
	durs, work := tl.layerStats()
	for _, l := range []string{"prr.build", "sim.lt.build", "sim.sir.build", "sim.kthresh.build", "diffusion.mc", "rrset.select"} {
		if lw := work[l]; lw[1] > 0 {
			fmt.Fprintf(w, "  %s rate = %.0f produced / %.3f s in %d calls = %.0f/s\n", l, lw[0], lw[1], len(durs[l]), lw[0]/lw[1])
		}
	}
	fmt.Fprintf(w, "  prr.bytes_per_sample = mean over %d prr builds of pool bytes / samples = %.0f\n",
		len(tl.bytesPerSample), m["prr.bytes_per_sample"].Value)
	fmt.Fprintf(w, "  trace.overhead_pct = traced / untraced mean read latency - 1 = %.2f%%\n", m["trace.overhead_pct"].Value)
}

// writeSpans writes every traced request's spans, one CSV line each.
func (tl *traceLog) writeSpans(path string, p *plan, ph *phase) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "seq,client,class,client_us,server_us,engine_us,kernel_us")
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, r := range p.all {
		fmt.Fprintf(bw, "%d,%d,%s,%.1f,%.1f,%.1f,", r.seq, r.client, r.class,
			us(ph.out[r.seq].lat), us(time.Duration(tl.server[r.seq].Load())), us(tl.engine[r.seq]))
		for i, s := range tl.kernel[r.seq] {
			if i > 0 {
				bw.WriteByte(' ')
			}
			fmt.Fprintf(bw, "%s=%.1f", s.layer, us(s.d))
		}
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
