// Command perfbench is kboostd's end-to-end benchmark. It runs the real
// serving stack in process — engine.New and engine.NewServer with
// kboostd's defaults, behind an http.Server on loopback — drives it with
// a closed loop of clients on kept-alive connections, checks every reply
// and the engine's work counters, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload warm_reads --seed 1 --seconds 15 --trace 0
//
// README.md describes the workloads, the metrics and the rules that make
// every run of a seed do the same work.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/kboost/kboost/internal/engine"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "warm_reads, cold_builds or patch_churn")
	seed := fs.Uint64("seed", 1, "workload seed; the request sequence derives from it")
	seconds := fs.Int("seconds", 15, "nominal run length; fixes the request count")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	spanDir := fs.String("span-dir", ".bench_build", "directory a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d must be >= 1", *seconds)
	}
	cfg := config{seconds: *seconds, setupReps: 3, minSamples: true}
	var rep *report
	switch *trace {
	case 0:
		rep, err = execute(w, *seed, cfg)
	case 1:
		rep, err = executeTraced(w, *seed, cfg, *spanDir)
	default:
		return fmt.Errorf("--trace %d must be 0 or 1", *trace)
	}
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"info": rep.info}); err != nil {
		return err
	}
	return enc.Encode(rep.res)
}

type config struct {
	seconds   int
	setupReps int // setups per run; setup_s is their median
	// minSamples requires ten samples beyond every reported percentile.
	minSamples bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// info records what a run compared like with like on.
type info struct {
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Seconds     int               `json:"seconds"`
	NProc       int               `json:"nproc"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	GoVersion   string            `json:"go_version"`
	Graphs      map[string][2]int `json:"graphs_n_m"`
	Clients     int               `json:"clients"`
	Requests    int               `json:"requests"`
	Reads       int               `json:"read_samples"`
	Writes      int               `json:"write_samples"`
	Classes     map[string]int    `json:"classes"`
	Sequence    string            `json:"sequence_sha256"`
	Fingerprint map[string]int64  `json:"fingerprint"`
	SetupS      []float64         `json:"setup_s"`
	FailFrac    float64           `json:"fail_frac"`
	Failures    []string          `json:"failures,omitempty"`
}

type report struct {
	res  result
	info info
}

// clientsFor is the closed loop's size: min(nproc, the cold admission
// lane), so no lane is ever oversubscribed, capped by the workload.
func clientsFor(w *workload) int {
	c := min(runtime.NumCPU(), engine.DefaultMaxInFlightCold())
	if w.maxClients > 0 {
		c = min(c, w.maxClients)
	}
	return max(c, 1)
}

// newRunPlan plans a run and, when cfg asks, refuses one too short to
// put ten samples beyond p99 of the reads and p90 of the writes.
func newRunPlan(w *workload, seed uint64, cfg config) (*plan, error) {
	p, err := newPlan(w, seed, cfg.seconds, clientsFor(w))
	if err != nil {
		return nil, err
	}
	if reads, writes := p.readsWrites(); cfg.minSamples && (reads < 1000 || writes < 100) {
		return nil, fmt.Errorf("%d reads and %d writes are too few for p99 and write p90; raise --seconds", reads, writes)
	}
	return p, nil
}

// execute makes one untraced run and reports the end-to-end metrics.
func execute(w *workload, seed uint64, cfg config) (*report, error) {
	p, err := newRunPlan(w, seed, cfg)
	if err != nil {
		return nil, err
	}
	st, setupS, err := setUpRepeated(p, cfg.setupReps, nil)
	if err != nil {
		return nil, err
	}
	defer st.close()
	ph, err := st.drive(p, false)
	if err != nil {
		return nil, err
	}
	ck, final, err := verify(p, st, ph)
	if err != nil {
		return nil, err
	}
	rep := newReport(p, ck, final, setupS)
	rep.res.Metrics = endToEnd(p, ph, setupS)
	return rep, nil
}

// verify checks the phase's replies and the engine's final counters.
func verify(p *plan, st *stack, ph *phase) (*checker, engine.Stats, error) {
	ck := check(p, st, ph)
	final, err := st.stats()
	if err != nil {
		return nil, final, fmt.Errorf("reading /v1/stats: %w", err)
	}
	ck.compareStats(final)
	return ck, final, nil
}

func newReport(p *plan, ck *checker, final engine.Stats, setupS []float64) *report {
	graphs := map[string][2]int{}
	for _, ng := range p.graphs {
		graphs[ng.id] = [2]int{ng.g.N(), ng.g.M()}
	}
	reads, writes := p.readsWrites()
	failed := ck.failed()
	return &report{
		res: result{Correct: failed == 0 && !ck.mismatch, Attempted: len(p.all), Failed: failed},
		info: info{
			Workload: p.w.name, Seed: p.seed, Seconds: p.seconds,
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Graphs: graphs, Clients: p.clients, Requests: len(p.all), Reads: reads, Writes: writes,
			Classes: p.classCounts(), Sequence: p.digest(), Fingerprint: fingerprintOf(final),
			SetupS: setupS, FailFrac: float64(failed) / float64(len(p.all)), Failures: ck.notes,
		},
	}
}

// endToEnd computes the metrics a user of kboostd sees.
func endToEnd(p *plan, ph *phase, setupS []float64) map[string]metric {
	reads, writes := latencies(p, ph)
	done := 0
	for _, o := range ph.out {
		if o.err == nil {
			done++
		}
	}
	done = max(done, 1)
	return map[string]metric{
		"setup_s":           {median(setupS), "s"},
		"throughput_rps":    {float64(done) / ph.wall.Seconds(), "1/s"},
		"p50_ms":            {quantile(reads, 0.50), "ms"},
		"p90_ms":            {quantile(reads, 0.90), "ms"},
		"p99_ms":            {quantile(reads, 0.99), "ms"},
		"cpu_ms_per_req":    {ms(ph.cpu) / float64(done), "ms"},
		"live_heap_peak_mb": {float64(ph.heapPeak) / (1 << 20), "MB"},
		"write_p50_ms":      {quantile(writes, 0.50), "ms"},
		"write_p90_ms":      {quantile(writes, 0.90), "ms"},
	}
}

// latencies splits the phase's round trips (ms) into reads and writes.
func latencies(p *plan, ph *phase) (reads, writes []float64) {
	for _, r := range p.all {
		l := ms(ph.out[r.seq].lat)
		if r.patch != nil {
			writes = append(writes, l)
		} else {
			reads = append(reads, l)
		}
	}
	return reads, writes
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
