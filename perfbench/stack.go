package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/kboost/kboost/internal/engine"
)

const (
	// authToken enables the PATCH endpoint, as kboostd's -auth-token does.
	authToken = "perfbench"
	// seqHeader carries a request's sequence index to the traced handler.
	seqHeader = "X-Perfbench-Seq"
	// maxPools and maxPoolBytes are kboostd's -max-pools and -max-pool-mb
	// defaults.
	maxPools     = 8
	maxPoolBytes = 1 << 30
)

// stack is one in-process kboostd: an engine with kboostd's default
// options and, when serving, engine.NewServer behind an http.Server on
// loopback.
type stack struct {
	eng    *engine.Engine
	srv    *http.Server
	served chan error
	base   string
	// answers holds the prewarm boosts' results by request body: a
	// result-cache hit must repeat them bit for bit.
	answers map[string]*engine.BoostResult
	// after is the engine's counters when setup ended.
	after engine.Stats
}

// setUp generates and registers the graphs, prewarms every pool, runs
// the tier calibration and, when serve is set, starts the HTTP server
// with wrap (if any) around the API handler. All of it is setup_s.
func setUp(p *plan, serve bool, wrap func(http.Handler) http.Handler) (*stack, error) {
	ctx := context.Background()
	gs, err := p.w.graphs(p.clients)
	if err != nil {
		return nil, err
	}
	eng := engine.New(engine.Options{MaxPools: maxPools, MaxPoolBytes: maxPoolBytes})
	for _, ng := range gs {
		if err := eng.RegisterGraph(ng.id, ng.g); err != nil {
			return nil, err
		}
	}
	st := &stack{eng: eng, answers: map[string]*engine.BoostResult{}}
	for _, req := range p.setup {
		res, err := eng.BoostContext(ctx, req)
		if err != nil {
			return nil, fmt.Errorf("prewarm boost: %w", err)
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		st.answers[string(body)] = res
	}
	if p.calib != nil {
		maxErr, err := calibrateTiers(ctx, eng, *p.calib)
		if err != nil {
			return nil, err
		}
		if err := p.settle(maxErr); err != nil {
			return nil, err
		}
	}
	st.after = eng.Stats()
	if serve {
		if err := st.serve(wrap); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// calibrateTiers runs the ic tier calibration on fixed operands (the
// first max_error request), then walks max_error down from 1024 to find
// a value served at tier 0 and one served at tier 1. Once calibrated,
// the tier depends on max_error alone, so these values pin the tier of
// every t0_err and t1_err request.
func calibrateTiers(ctx context.Context, eng *engine.Engine, req engine.EstimateRequest) ([2]float64, error) {
	var out [2]float64
	if _, err := eng.EstimateContext(ctx, req); err != nil {
		return out, fmt.Errorf("tier calibration: %w", err)
	}
	for x := 1024.0; x > 1e-9; x /= 2 {
		req.MaxError = x
		res, err := eng.EstimateContext(ctx, req)
		if err != nil {
			return out, fmt.Errorf("tier probe: %w", err)
		}
		if res.Tier == 2 {
			break
		}
		if out[res.Tier] == 0 {
			out[res.Tier] = x
		}
	}
	if out[0] == 0 || out[1] == 0 {
		return out, fmt.Errorf("tier calibration serves no max_error at tier 0 (%g) or at tier 1 (%g)", out[0], out[1])
	}
	return out, nil
}

// setUpRepeated sets a serving stack up reps times, each after a forced
// GC, and keeps the last; setup_s is the median of the times.
func setUpRepeated(p *plan, reps int, wrap func(http.Handler) http.Handler) (*stack, []float64, error) {
	var st *stack
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, err = setUp(p, true, wrap); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return st, times, nil
}

func (st *stack) serve(wrap func(http.Handler) http.Handler) error {
	var h http.Handler = engine.NewServer(st.eng, engine.ServerOptions{
		AuthToken:       authToken,
		MaxInFlightCold: engine.DefaultMaxInFlightCold(),
		MaxInFlightWarm: engine.DefaultMaxInFlightWarm(),
	})
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	// kboostd's default http.Server timeouts.
	st.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout: 5 * time.Minute, IdleTimeout: 2 * time.Minute}
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	st.base = "http://" + ln.Addr().String()
	return nil
}

// close stops the server and waits for its Serve loop to return.
func (st *stack) close() error {
	if st.srv == nil {
		return nil
	}
	err := st.srv.Close()
	if serr := <-st.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	st.srv = nil
	return err
}

// newClient returns a client with its own transport (one kept-alive
// connection, no proxy, no compression).
func newClient() (*http.Client, *http.Transport) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &http.Client{Transport: tr}, tr
}

// get fetches path and decodes the JSON reply into out when non-nil.
func (st *stack) get(hc *http.Client, path string, out any) error {
	resp, err := hc.Get(st.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}

// stats reads the engine's counters through GET /v1/stats.
func (st *stack) stats() (engine.Stats, error) {
	hc, tr := newClient()
	defer tr.CloseIdleConnections()
	var s engine.Stats
	err := st.get(hc, "/v1/stats", &s)
	return s, err
}

// outcome is one timed request's reply.
type outcome struct {
	status int
	body   []byte
	lat    time.Duration
	err    error
}

// phase is one timed phase's replies and process-wide costs.
type phase struct {
	out      []outcome // by seq
	wall     time.Duration
	cpu      time.Duration
	heapPeak uint64
	gcCycles uint64
	gcPause  time.Duration
}

// drive runs the timed phase: a closed loop with one client per plan
// client, each on its own kept-alive connection, sending its requests in
// order and each only after the previous reply.
func (st *stack) drive(p *plan, traced bool) (*phase, error) {
	hcs := make([]*http.Client, p.clients)
	for c := range hcs {
		hc, tr := newClient()
		defer tr.CloseIdleConnections()
		// Open the connection before timing starts.
		if err := st.get(hc, "/healthz", nil); err != nil {
			return nil, err
		}
		hcs[c] = hc
	}
	ph := &phase{out: make([]outcome, len(p.all))}
	runtime.GC()
	heap := startHeapSampler()
	cycles0, pause0 := gcTotals()
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for c, hc := range hcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range p.reqs[c] {
				ph.out[r.seq] = st.send(hc, r, traced)
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	ph.heapPeak = heap.finish()
	cycles1, pause1 := gcTotals()
	ph.gcCycles, ph.gcPause = cycles1-cycles0, pause1-pause0
	return ph, nil
}

func (st *stack) send(hc *http.Client, r *request, traced bool) outcome {
	method := http.MethodPost
	if r.patch != nil {
		method = http.MethodPatch
	}
	hreq, err := http.NewRequest(method, st.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return outcome{err: err}
	}
	hreq.Header.Set("Content-Type", "application/json")
	if r.patch != nil {
		hreq.Header.Set("Authorization", "Bearer "+authToken)
	}
	if traced {
		hreq.Header.Set(seqHeader, strconv.Itoa(r.seq))
	}
	t0 := time.Now()
	resp, err := hc.Do(hreq)
	if err != nil {
		return outcome{err: err, lat: time.Since(t0)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return outcome{status: resp.StatusCode, body: body, lat: time.Since(t0), err: err}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcTotals returns the GC cycle count and total stop-the-world pause.
func gcTotals() (uint64, time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return uint64(ms.NumGC), time.Duration(ms.PauseTotalNs)
}

// heapSampler tracks the peak of the live heap (runtime/metrics
// /gc/heap/live:bytes, updated at the end of each GC cycle).
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			h.read()
			select {
			case <-h.stop:
				h.read()
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) read() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 && s[0].Value.Uint64() > h.peak {
		h.peak = s[0].Value.Uint64()
	}
}

// finish stops the sampler and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}
