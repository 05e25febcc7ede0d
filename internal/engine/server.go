package engine

import (
	"bufio"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/panicsafe"
)

// ServerOptions configures the HTTP front end.
type ServerOptions struct {
	// MaxWorkers caps the per-request worker budget; requests asking for
	// more are clamped (0 = no cap beyond the engine default).
	MaxWorkers int
	// MaxBodyBytes bounds the JSON query request bodies (default 8 MiB —
	// seed and boost lists can be large; graph uploads have their own
	// MaxUploadBytes cap).
	MaxBodyBytes int64
	// AuthToken, when non-empty, enables the mutating graph-lifecycle
	// endpoints (POST/PUT/DELETE /v1/graphs/{name}); clients must send
	// it as "Authorization: Bearer <token>". When empty, those
	// endpoints answer 403 — a daemon is never mutable by accident.
	AuthToken string
	// MaxUploadBytes bounds graph upload bodies (default 64 MiB);
	// larger uploads are rejected with 413.
	MaxUploadBytes int64
	// MaxGraphNodes caps the declared node count of uploaded snapshots
	// (default 1<<24), bounding the CSR allocation a hostile header can
	// demand. The edge cap follows from MaxUploadBytes (every edge
	// costs at least 8 input bytes in either codec).
	MaxGraphNodes int
	// SnapshotDir, when non-empty, persists every accepted upload as
	// <dir>/<name>.kbg (binary codec, atomic rename) and removes the
	// file on DELETE, so a restarted daemon can reload its live graphs
	// with Engine.LoadSnapshotDir.
	SnapshotDir string
	// MaxInFlightCold bounds concurrently admitted cold queries — ones
	// that must build a pool, run a tier calibration, or run a pool-free
	// full Monte-Carlo (identical concurrent queries do not count twice:
	// singleflight followers of an in-flight build ride the warm lane,
	// since they only wait). Cold work is the expensive, memory-hungry
	// kind, so its lane should be narrow — kboostd defaults it to
	// GOMAXPROCS. Overflow is shed with 429 and a Retry-After hint
	// (estimates degrade instead; see DisableDegrade). 0, the library
	// default, leaves the lane unbounded.
	MaxInFlightCold int
	// MaxInFlightWarm bounds concurrently admitted warm queries (served
	// from an already-built pool or closed-form). Warm work is cheap, so
	// its lane should be wide — kboostd defaults it to 16×GOMAXPROCS. 0,
	// the library default, leaves it unbounded.
	MaxInFlightWarm int
	// RetryAfterSeconds is the Retry-After hint on shed (429) responses
	// (default 1).
	RetryAfterSeconds int
	// DisableDegrade turns off the estimate pressure valve. By default
	// an estimate that would be shed is served degraded instead: the
	// cheapest tier its mode supports (closed-form two-hop, or tier 1's
	// fixed small sample budget for modes without a closed form), marked
	// "degraded": true — availability traded for fidelity. With
	// DisableDegrade estimates are shed with 429 like everything else.
	DisableDegrade bool
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 8 << 20
	}
	if o.MaxUploadBytes <= 0 {
		o.MaxUploadBytes = 64 << 20
	}
	if o.MaxGraphNodes <= 0 {
		o.MaxGraphNodes = 1 << 24
	}
	if o.RetryAfterSeconds <= 0 {
		o.RetryAfterSeconds = 1
	}
	return o
}

// DefaultMaxInFlightCold / DefaultMaxInFlightWarm are the admission
// bounds kboostd serves with unless overridden by flag: a cold lane as
// wide as the machine (pool builds saturate all cores anyway, more of
// them just thrash) and a generously wide warm lane.
func DefaultMaxInFlightCold() int { return runtime.GOMAXPROCS(0) }
func DefaultMaxInFlightWarm() int { return 16 * runtime.GOMAXPROCS(0) }

// Server is the HTTP front end of an Engine. It serves:
//
//	POST /v1/boost           — run PRR-Boost / PRR-Boost-LB / boosted-LT
//	                           greedy (mode "full", "lb" or "lt")
//	POST /v1/seeds           — classic IMM seed selection
//	POST /v1/estimate        — spread / boost estimation (mode "ic" runs
//	                           fresh Monte-Carlo; mode "lt" evaluates on
//	                           the cached LT profile pool)
//	GET  /v1/stats           — engine counters and uptime
//	GET  /v1/graphs          — list registered snapshots (id, version,
//	                           size)
//	GET  /v1/graphs/{name}   — one snapshot's descriptor
//	POST /v1/graphs/{name}   — upload a snapshot (text or binary graph
//	                           codec, auto-detected; bearer auth; PUT is
//	                           accepted as an alias)
//	DELETE /v1/graphs/{name} — remove a snapshot (bearer auth)
//	PATCH /v1/graphs/{name}/edges
//	                         — apply an edge delta (add/remove/reweight
//	                           batches, JSON or the KBD1 binary delta
//	                           codec, auto-detected; bearer auth). The
//	                           patched snapshot gets a bumped version
//	                           and its cached pools are repaired, not
//	                           invalidated.
//
// Query request and response bodies are JSON; upload bodies are the
// graph codecs themselves, decoded in a streaming pass. Errors are
// reported as {"error": "..."} with a matching status code: 400 for
// malformed or invalid requests, 401 for missing/bad auth, 403 when
// graph administration is disabled, 404 for unknown graph ids, 405 for
// wrong methods, 409 for patches raced by a concurrent replacement,
// 413 for oversized bodies.
type Server struct {
	engine *Engine
	opt    ServerOptions
	mux    *http.ServeMux
	start  time.Time
	// adminMu serializes the persist+install (and delete+remove) pair of
	// the mutating graph endpoints: without it, two concurrent uploads of
	// one name could interleave so that the snapshot on disk and the one
	// the registry serves are different — and a restart would silently
	// revive the loser. Admin traffic is rare; one mutex is plenty.
	adminMu sync.Mutex

	// coldSem / warmSem are the admission semaphores (nil = unbounded):
	// a query handler try-acquires the lane its request classifies into
	// and sheds (or degrades) on overflow instead of queueing — the
	// expensive pool builds behind a full lane would only pile up behind
	// the entry locks anyway, and a bounded 429 beats an unbounded queue
	// of doomed requests.
	coldSem chan struct{}
	warmSem chan struct{}

	// draining flips the /readyz probe to 503 so load balancers stop
	// routing new work here before http.Server.Shutdown starts refusing
	// connections; requests already in flight (and stragglers that still
	// arrive) are served normally.
	draining atomic.Bool
}

// NewServer wraps an Engine in the HTTP front end.
func NewServer(e *Engine, opt ServerOptions) *Server {
	s := &Server{engine: e, opt: opt.withDefaults(), mux: http.NewServeMux(), start: time.Now()}
	if s.opt.MaxInFlightCold > 0 {
		s.coldSem = make(chan struct{}, s.opt.MaxInFlightCold)
	}
	if s.opt.MaxInFlightWarm > 0 {
		s.warmSem = make(chan struct{}, s.opt.MaxInFlightWarm)
	}
	s.mux.HandleFunc("/v1/boost", s.handleBoost)
	s.mux.HandleFunc("/v1/seeds", s.handleSeeds)
	s.mux.HandleFunc("/v1/estimate", s.handleEstimate)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/graphs", s.handleGraphList)
	s.mux.HandleFunc("/v1/graphs/", s.handleGraph)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	return s
}

// ServeHTTP implements http.Handler, wrapping the mux in the panic
// containment middleware: a panic that escapes a handler (including a
// worker's panic that shard.Each re-raises on the handler's goroutine)
// is converted into a JSON 500 and counted, instead of
// killing the connection — and, under http.Server, being the only
// goroutine that dies. http.ErrAbortHandler is the deliberate
// abort-this-response sentinel and is re-raised untouched.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			atomic.AddInt64(&s.engine.ctr.PanicsRecovered, 1)
			// If the handler already started its response this write is a
			// no-op on the status line; the client sees a truncated body,
			// which is the best available outcome mid-stream.
			s.writeJSON(w, http.StatusInternalServerError,
				errorResponse{Error: fmt.Sprintf("internal error: recovered panic: %v", rec)})
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// SetDraining flips the /readyz readiness probe (true ⇒ 503). Call with
// true before http.Server.Shutdown so load balancers drain this
// instance first; the liveness probe /healthz is unaffected.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeJSON(w, http.StatusServiceUnavailable, struct {
			Status string `json:"status"`
		}{Status: "draining"})
		return
	}
	s.writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ready"})
}

// tryAcquire claims a slot in the warm or cold admission lane without
// blocking. ok == false means the lane is full; the caller sheds or
// degrades. release must be called exactly once when ok.
func (s *Server) tryAcquire(cold bool) (release func(), ok bool) {
	sem := s.warmSem
	if cold {
		sem = s.coldSem
	}
	if sem == nil {
		return func() {}, true
	}
	select {
	case sem <- struct{}{}:
		return func() { <-sem }, true
	default:
		return nil, false
	}
}

// shed rejects an unadmittable request with 429 and a Retry-After hint.
func (s *Server) shed(w http.ResponseWriter) {
	atomic.AddInt64(&s.engine.ctr.RequestsShed, 1)
	w.Header().Set("Retry-After", strconv.Itoa(s.opt.RetryAfterSeconds))
	s.writeJSON(w, http.StatusTooManyRequests,
		errorResponse{Error: "server is at capacity; retry shortly"})
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

// statusClientClosedRequest is the (nginx-convention) status for a
// request abandoned by its own client: the engine returned ctx.Err()
// because the connection went away, and nobody is reading the reply —
// but logs and middleware still deserve an honest status over a 400.
const statusClientClosedRequest = 499

func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	var panicked *panicsafe.Error
	switch {
	case errors.Is(err, ErrUnknownGraph):
		status = http.StatusNotFound
	case errors.Is(err, ErrGraphChanged):
		status = http.StatusConflict
	case errors.As(err, &tooBig):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		status = statusClientClosedRequest
	case errors.As(err, &panicked):
		status = http.StatusInternalServerError
	}
	s.writeJSON(w, status, errorResponse{Error: err.Error()})
}

// decode parses a JSON request body strictly: unknown fields and
// trailing garbage are errors, so client typos fail loudly instead of
// silently running a default query.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("decoding request: trailing data after JSON body")
	}
	return nil
}

// requirePost returns false (after replying 405) unless the request is
// a POST.
func (s *Server) requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use POST"})
		return false
	}
	return true
}

// clampWorkers applies the server-wide cap to a per-request budget. A
// request that omits workers (<= 0) falls through to the engine
// default rather than being forced up to the cap.
func (s *Server) clampWorkers(requested int) int {
	if s.opt.MaxWorkers > 0 && requested > s.opt.MaxWorkers {
		return s.opt.MaxWorkers
	}
	return requested
}

type boostResponse struct {
	BoostSet  []int32 `json:"boost_set"`
	EstBoost  float64 `json:"est_boost"`
	EstMu     float64 `json:"est_mu"`
	EstDelta  float64 `json:"est_delta,omitempty"`
	Samples   int     `json:"samples"`
	CacheHit  bool    `json:"cache_hit"`
	ResultHit bool    `json:"result_cached,omitempty"`
	Rebuilt   bool    `json:"rebuilt,omitempty"`
	NewPRR    int     `json:"new_prr_graphs"`
	PoolK     int     `json:"pool_k"`
	Boostable int     `json:"boostable_prr_graphs"`
	SampleMS  float64 `json:"sampling_ms"`
	SelectMS  float64 `json:"selection_ms"`
	// GraphVersion is the snapshot version the query computed against;
	// it bumps whenever the graph is re-uploaded.
	GraphVersion uint64 `json:"graph_version"`
}

func (s *Server) handleBoost(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r) {
		return
	}
	var req BoostRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	req.Workers = s.clampWorkers(req.Workers)
	release, ok := s.tryAcquire(!s.engine.boostWarm(req))
	if !ok {
		s.shed(w)
		return
	}
	defer release()
	res, err := s.engine.BoostContext(r.Context(), req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, boostResponse{
		BoostSet:  res.BoostSet,
		EstBoost:  res.EstBoost,
		EstMu:     res.EstMu,
		EstDelta:  res.EstDelta,
		Samples:   res.Samples,
		CacheHit:  res.CacheHit,
		ResultHit: res.ResultCached,
		Rebuilt:   res.Rebuilt,
		NewPRR:    res.NewSamples,
		PoolK:     res.PoolK,
		Boostable: res.PoolStats.Boostable,
		SampleMS:  float64(res.SamplingTime.Microseconds()) / 1e3,
		SelectMS:  float64(res.SelectionTime.Microseconds()) / 1e3,

		GraphVersion: res.GraphVersion,
	})
}

type seedsResponse struct {
	Seeds        []int32 `json:"seeds"`
	EstInfluence float64 `json:"est_influence"`
	Samples      int     `json:"samples"`
}

func (s *Server) handleSeeds(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r) {
		return
	}
	var req SeedsRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	req.Workers = s.clampWorkers(req.Workers)
	// Seed selection builds a per-request RR-set pool every time — there
	// is no warm case — so it always rides the cold lane.
	release, ok := s.tryAcquire(true)
	if !ok {
		s.shed(w)
		return
	}
	defer release()
	res, err := s.engine.SelectSeedsContext(r.Context(), req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, seedsResponse{
		Seeds:        res.Seeds,
		EstInfluence: res.EstInfluence,
		Samples:      res.Samples,
	})
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r) {
		return
	}
	var req EstimateRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	req.Workers = s.clampWorkers(req.Workers)
	release, ok := s.tryAcquire(!s.engine.estimateWarm(req))
	if !ok {
		if s.opt.DisableDegrade {
			s.shed(w)
			return
		}
		// The estimate pressure valve: serve the cheapest tier the mode
		// supports instead of shedding. Degraded serves are pool-free and
		// closed-form or small-sample, so admitting them outside the lanes
		// cannot pile up expensive work.
		res, err := s.engine.EstimateDegraded(r.Context(), req)
		if err != nil {
			s.writeError(w, err)
			return
		}
		s.writeJSON(w, http.StatusOK, res)
		return
	}
	defer release()
	res, err := s.engine.EstimateContext(r.Context(), req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, res)
}

// --- the graph lifecycle endpoints ---

// validGraphName restricts uploadable graph names to a path- and
// key-safe charset: letters, digits, '.', '_', '-', at most 64 bytes,
// and no leading dot — a dot-led name would persist as a hidden file,
// collide with path navigation, and could match the orphaned-temp-file
// sweep in LoadSnapshotDir.
func validGraphName(name string) bool {
	if name == "" || len(name) > 64 || name[0] == '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// authorize gates the mutating graph endpoints behind the configured
// bearer token (constant-time comparison). Without a configured token
// the endpoints are disabled outright: 403, not an open server.
func (s *Server) authorize(w http.ResponseWriter, r *http.Request) bool {
	if s.opt.AuthToken == "" {
		s.writeJSON(w, http.StatusForbidden,
			errorResponse{Error: "graph administration disabled: server has no auth token"})
		return false
	}
	const prefix = "Bearer "
	auth := r.Header.Get("Authorization")
	if len(auth) < len(prefix) || !strings.EqualFold(auth[:len(prefix)], prefix) ||
		subtle.ConstantTimeCompare([]byte(auth[len(prefix):]), []byte(s.opt.AuthToken)) != 1 {
		w.Header().Set("WWW-Authenticate", `Bearer realm="kboost"`)
		s.writeJSON(w, http.StatusUnauthorized, errorResponse{Error: "missing or invalid bearer token"})
		return false
	}
	return true
}

func (s *Server) handleGraphList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use GET"})
		return
	}
	s.writeJSON(w, http.StatusOK, struct {
		Graphs []GraphInfo `json:"graphs"`
	}{Graphs: s.engine.GraphInfos()})
}

func (s *Server) handleGraph(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/v1/graphs/")
	// The edge-delta subresource is routed before name validation so
	// "name/edges" is never mistaken for a (slash-invalid) graph name.
	if base, isEdges := strings.CutSuffix(name, "/edges"); isEdges {
		s.handleGraphEdges(w, r, base)
		return
	}
	if !validGraphName(name) {
		s.writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: fmt.Sprintf("invalid graph name %q (want 1-64 of [A-Za-z0-9._-])", name)})
		return
	}
	switch r.Method {
	case http.MethodGet:
		info, err := s.engine.GraphInfo(name)
		if err != nil {
			s.writeError(w, err)
			return
		}
		s.writeJSON(w, http.StatusOK, info)
	case http.MethodPost, http.MethodPut:
		if s.authorize(w, r) {
			s.uploadGraph(w, r, name)
		}
	case http.MethodDelete:
		if s.authorize(w, r) {
			s.deleteGraph(w, name)
		}
	default:
		w.Header().Set("Allow", "GET, POST, PUT, DELETE")
		s.writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use GET, POST, PUT or DELETE"})
	}
}

// decodeGraphUpload reads a graph off the (size-capped) request body in
// one streaming pass, sniffing the binary magic to pick the codec.
func (s *Server) decodeGraphUpload(w http.ResponseWriter, r *http.Request) (*graph.Graph, error) {
	br := bufio.NewReader(http.MaxBytesReader(w, r.Body, s.opt.MaxUploadBytes))
	lim := graph.ReadLimits{
		MaxNodes: s.opt.MaxGraphNodes,
		// Every edge costs >= 8 body bytes in the text codec (24 in the
		// binary one), so this cap never rejects an upload that fits the
		// body budget — it only fails absurd headers early.
		MaxEdges: int(s.opt.MaxUploadBytes/8) + 1,
	}
	if magic, _ := br.Peek(4); string(magic) == "KBG1" {
		return graph.ReadBinaryLimited(br, lim)
	}
	return graph.ReadTextLimited(br, lim)
}

type graphUploadResponse struct {
	GraphInfo
	Replaced bool `json:"replaced"`
	// InvalidatedPools counts the replaced snapshot's cached pools that
	// were swept by this upload.
	InvalidatedPools int `json:"invalidated_pools"`
}

func (s *Server) uploadGraph(w http.ResponseWriter, r *http.Request, name string) {
	g, err := s.decodeGraphUpload(w, r)
	if err != nil {
		s.writeError(w, fmt.Errorf("decoding graph upload: %w", err))
		return
	}
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	if s.opt.SnapshotDir != "" {
		clash, err := SnapshotCaseClash(s.opt.SnapshotDir, name)
		if err != nil {
			s.writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
			return
		}
		if clash != "" {
			// On a case-insensitive filesystem the two ids would share one
			// snapshot file, and a restart would silently drop one graph.
			s.writeJSON(w, http.StatusConflict, errorResponse{
				Error: fmt.Sprintf("graph name %q collides with persisted snapshot %q (names must differ beyond letter case)", name, clash)})
			return
		}
		if err := SaveSnapshot(s.opt.SnapshotDir, name, g); err != nil {
			s.writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
			return
		}
	}
	res, err := s.engine.UploadGraph(name, g)
	if err != nil {
		s.writeError(w, err)
		return
	}
	status := http.StatusCreated
	if res.Replaced {
		status = http.StatusOK
	}
	s.writeJSON(w, status, graphUploadResponse{
		GraphInfo:        GraphInfo{ID: name, Version: res.Version, Nodes: g.N(), Edges: g.M()},
		Replaced:         res.Replaced,
		InvalidatedPools: res.InvalidatedPools,
	})
}

type graphDeleteResponse struct {
	Graph            string `json:"graph"`
	Deleted          bool   `json:"deleted"`
	InvalidatedPools int    `json:"invalidated_pools"`
}

func (s *Server) deleteGraph(w http.ResponseWriter, name string) {
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	invalidated, err := s.engine.DeleteGraph(name)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if s.opt.SnapshotDir != "" {
		if err := RemoveSnapshot(s.opt.SnapshotDir, name); err != nil {
			// The snapshot is gone from the engine but its file remains;
			// be loud so the operator reconciles before the next boot.
			s.writeJSON(w, http.StatusInternalServerError,
				errorResponse{Error: fmt.Sprintf("graph %q deleted, but removing its persisted snapshot failed: %v", name, err)})
			return
		}
	}
	s.writeJSON(w, http.StatusOK, graphDeleteResponse{
		Graph: name, Deleted: true, InvalidatedPools: invalidated,
	})
}

// --- the edge-delta (graph patch) endpoint ---

// deltaEdgeJSON / deltaKeyJSON are the JSON spellings of one delta op.
type deltaEdgeJSON struct {
	From   int32   `json:"from"`
	To     int32   `json:"to"`
	P      float64 `json:"p"`
	PBoost float64 `json:"p_boost"`
}

type deltaKeyJSON struct {
	From int32 `json:"from"`
	To   int32 `json:"to"`
}

// edgeDeltaJSON is the JSON request body of PATCH
// /v1/graphs/{name}/edges; any of the three batches may be omitted.
type edgeDeltaJSON struct {
	Add      []deltaEdgeJSON `json:"add,omitempty"`
	Remove   []deltaKeyJSON  `json:"remove,omitempty"`
	Reweight []deltaEdgeJSON `json:"reweight,omitempty"`
}

func (j *edgeDeltaJSON) toDelta() *graph.EdgeDelta {
	d := &graph.EdgeDelta{}
	for _, e := range j.Add {
		d.Add = append(d.Add, graph.Edge{From: e.From, To: e.To, P: e.P, PBoost: e.PBoost})
	}
	for _, k := range j.Remove {
		d.Remove = append(d.Remove, graph.EdgeKey{From: k.From, To: k.To})
	}
	for _, e := range j.Reweight {
		d.Reweight = append(d.Reweight, graph.Edge{From: e.From, To: e.To, P: e.P, PBoost: e.PBoost})
	}
	return d
}

// decodeDeltaUpload reads an edge delta off the (size-capped) request
// body, sniffing the KBD1 magic to pick between the binary delta codec
// and strict JSON. Mutations share the upload body budget — deltas are
// admin traffic, not query traffic.
func (s *Server) decodeDeltaUpload(w http.ResponseWriter, r *http.Request) (*graph.EdgeDelta, error) {
	body := http.MaxBytesReader(w, r.Body, s.opt.MaxUploadBytes)
	br := bufio.NewReader(body)
	// Every binary delta op costs >= 8 body bytes (JSON far more), so
	// the cap only fails absurd headers early, never a body that fits.
	maxOps := int(s.opt.MaxUploadBytes/8) + 1
	if magic, _ := br.Peek(4); string(magic) == "KBD1" {
		return graph.ReadEdgeDeltaLimited(br, graph.ReadLimits{MaxEdges: maxOps})
	}
	var j edgeDeltaJSON
	dec := json.NewDecoder(br)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		return nil, fmt.Errorf("decoding edge delta: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("decoding edge delta: trailing data after JSON body")
	}
	d := j.toDelta()
	if d.Ops() > maxOps {
		return nil, fmt.Errorf("edge delta has %d ops, limit %d", d.Ops(), maxOps)
	}
	return d, nil
}

func (s *Server) handleGraphEdges(w http.ResponseWriter, r *http.Request, name string) {
	if !validGraphName(name) {
		s.writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: fmt.Sprintf("invalid graph name %q (want 1-64 of [A-Za-z0-9._-])", name)})
		return
	}
	if r.Method != http.MethodPatch {
		w.Header().Set("Allow", http.MethodPatch)
		s.writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use PATCH"})
		return
	}
	if !s.authorize(w, r) {
		return
	}
	delta, err := s.decodeDeltaUpload(w, r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	res, err := s.engine.RepairGraph(name, delta)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if s.opt.SnapshotDir != "" {
		// Persist after the install (the patched graph only exists once
		// the engine has accepted the delta). adminMu guarantees no other
		// admin op interleaves between install and persist; if the write
		// still fails, be loud so the operator reconciles before the next
		// boot revives the pre-patch snapshot.
		g, gerr := s.engine.Graph(name)
		if gerr == nil {
			gerr = SaveSnapshot(s.opt.SnapshotDir, name, g)
		}
		if gerr != nil {
			s.writeJSON(w, http.StatusInternalServerError, errorResponse{
				Error: fmt.Sprintf("graph %q patched to version %d, but persisting the snapshot failed: %v",
					name, res.Version, gerr)})
			return
		}
	}
	s.writeJSON(w, http.StatusOK, res)
}

type statsResponse struct {
	Stats
	GraphIDs      []string `json:"graph_ids"`
	UptimeSeconds float64  `json:"uptime_seconds"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use GET"})
		return
	}
	s.writeJSON(w, http.StatusOK, statsResponse{
		Stats:         s.engine.Stats(),
		GraphIDs:      s.engine.GraphIDs(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	})
}
