package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	e := newTestEngine(t, Options{})
	srv := httptest.NewServer(NewServer(e, ServerOptions{MaxWorkers: 2}))
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, decoded
}

func TestBoostEndpointRoundTrip(t *testing.T) {
	srv := newTestServer(t)
	body := `{"graph":"g","seeds":[0,20,40],"k":3,"seed":11,"max_samples":3000}`

	resp, cold := postJSON(t, srv.URL+"/v1/boost", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold boost: status %d, body %v", resp.StatusCode, cold)
	}
	set, ok := cold["boost_set"].([]any)
	if !ok || len(set) != 3 {
		t.Fatalf("boost_set = %v, want 3 nodes", cold["boost_set"])
	}
	if cold["cache_hit"] != false {
		t.Error("cold query reported cache_hit=true")
	}

	resp, warm := postJSON(t, srv.URL+"/v1/boost", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm boost: status %d", resp.StatusCode)
	}
	if warm["cache_hit"] != true {
		t.Error("warm query reported cache_hit=false")
	}
	if warm["new_prr_graphs"] != float64(0) {
		t.Errorf("warm query generated %v PRR-graphs, want 0", warm["new_prr_graphs"])
	}
}

func TestBoostEndpointMalformedRequest(t *testing.T) {
	srv := newTestServer(t)
	for name, body := range map[string]string{
		"truncated":     `{"graph":"g","seeds":[0`,
		"wrong type":    `{"graph":"g","seeds":"zero","k":3}`,
		"unknown field": `{"graph":"g","seeds":[0],"k":3,"turbo":true}`,
		"trailing data": `{"graph":"g","seeds":[0],"k":3}{"again":1}`,
	} {
		resp, decoded := postJSON(t, srv.URL+"/v1/boost", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		if msg, _ := decoded["error"].(string); msg == "" {
			t.Errorf("%s: missing error message in %v", name, decoded)
		}
	}
}

func TestBoostEndpointUnknownGraph(t *testing.T) {
	srv := newTestServer(t)
	resp, decoded := postJSON(t, srv.URL+"/v1/boost", `{"graph":"missing","seeds":[0],"k":1}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
	if msg, _ := decoded["error"].(string); !strings.Contains(msg, "missing") {
		t.Errorf("error %q does not name the graph id", msg)
	}
}

func TestBoostEndpointInvalidQuery(t *testing.T) {
	srv := newTestServer(t)
	resp, decoded := postJSON(t, srv.URL+"/v1/boost", `{"graph":"g","seeds":[],"k":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty seed set: status %d, want 400; body %v", resp.StatusCode, decoded)
	}
}

func TestBoostEndpointWrongMethod(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/boost")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/boost: status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Errorf("Allow header %q, want POST", allow)
	}
}

func TestSeedsAndEstimateEndpoints(t *testing.T) {
	srv := newTestServer(t)
	resp, seeds := postJSON(t, srv.URL+"/v1/seeds", `{"graph":"g","k":2,"seed":5,"max_samples":2000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seeds: status %d, body %v", resp.StatusCode, seeds)
	}
	picked, ok := seeds["seeds"].([]any)
	if !ok || len(picked) != 2 {
		t.Fatalf("seeds = %v, want 2 nodes", seeds["seeds"])
	}

	resp, est := postJSON(t, srv.URL+"/v1/estimate",
		`{"graph":"g","seeds":[0,20],"boost":[7],"sims":500,"seed":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate: status %d, body %v", resp.StatusCode, est)
	}
	if spread, _ := est["spread"].(float64); spread < 2 {
		t.Errorf("spread %v below seed count", est["spread"])
	}
}

func TestLTBoostEndpointRoundTrip(t *testing.T) {
	srv := newTestServer(t)
	body := `{"graph":"g","seeds":[0,20,40],"k":3,"mode":"lt","seed":11,"sims":1500}`

	resp, cold := postJSON(t, srv.URL+"/v1/boost", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold lt boost: status %d, body %v", resp.StatusCode, cold)
	}
	set, ok := cold["boost_set"].([]any)
	if !ok || len(set) != 3 {
		t.Fatalf("boost_set = %v, want 3 nodes", cold["boost_set"])
	}
	if cold["cache_hit"] != false {
		t.Error("cold lt query reported cache_hit=true")
	}
	if cold["new_prr_graphs"] != float64(1500) {
		t.Errorf("cold lt query reported %v new samples, want 1500 profiles", cold["new_prr_graphs"])
	}

	resp, warm := postJSON(t, srv.URL+"/v1/boost", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm lt boost: status %d", resp.StatusCode)
	}
	if warm["cache_hit"] != true || warm["result_cached"] != true {
		t.Errorf("warm lt query: cache_hit=%v result_cached=%v, want both true", warm["cache_hit"], warm["result_cached"])
	}
	if warm["new_prr_graphs"] != float64(0) {
		t.Errorf("warm lt query generated %v profiles, want 0", warm["new_prr_graphs"])
	}
	if fmt.Sprint(warm["boost_set"]) != fmt.Sprint(cold["boost_set"]) {
		t.Errorf("warm lt boost set %v != cold %v", warm["boost_set"], cold["boost_set"])
	}
}

func TestLTBoostEndpointBadMode(t *testing.T) {
	srv := newTestServer(t)
	resp, decoded := postJSON(t, srv.URL+"/v1/boost", `{"graph":"g","seeds":[0],"k":1,"mode":"turbo"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad mode: status %d, want 400", resp.StatusCode)
	}
	if msg, _ := decoded["error"].(string); !strings.Contains(msg, "turbo") || !strings.Contains(msg, "lt") {
		t.Errorf("error %q should name the bad mode and list \"lt\"", msg)
	}
	resp, decoded = postJSON(t, srv.URL+"/v1/estimate", `{"graph":"g","seeds":[0],"mode":"turbo"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad estimate mode: status %d, want 400; body %v", resp.StatusCode, decoded)
	}
}

// TestLTBoostEndpointWorkerClamping: a request demanding more workers
// than the server cap must be clamped, not rejected — and because LT
// pool results are worker-count invariant, the clamped response must
// match a plain one bit-for-bit.
func TestLTBoostEndpointWorkerClamping(t *testing.T) {
	srv := newTestServer(t) // MaxWorkers: 2
	plain := `{"graph":"g","seeds":[0,20,40],"k":2,"mode":"lt","sims":1000}`
	greedy := `{"graph":"g","seeds":[0,20,40],"k":2,"mode":"lt","sims":1000,"workers":64}`
	resp, a := postJSON(t, srv.URL+"/v1/boost", plain)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain: status %d, body %v", resp.StatusCode, a)
	}
	resp, b := postJSON(t, srv.URL+"/v1/boost", greedy)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clamped: status %d, body %v", resp.StatusCode, b)
	}
	if fmt.Sprint(a["boost_set"]) != fmt.Sprint(b["boost_set"]) || a["est_boost"] != b["est_boost"] {
		t.Errorf("clamped request diverged: %v/%v vs %v/%v", b["boost_set"], b["est_boost"], a["boost_set"], a["est_boost"])
	}
}

func TestLTEstimateEndpoint(t *testing.T) {
	srv := newTestServer(t)
	if resp, body := postJSON(t, srv.URL+"/v1/boost",
		`{"graph":"g","seeds":[0,20,40],"k":2,"mode":"lt","sims":1200}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("lt boost: status %d, body %v", resp.StatusCode, body)
	}
	resp, est := postJSON(t, srv.URL+"/v1/estimate",
		`{"graph":"g","seeds":[0,20,40],"boost":[7],"mode":"lt","sims":1200}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lt estimate: status %d, body %v", resp.StatusCode, est)
	}
	if est["cache_hit"] != true {
		t.Error("lt estimate after lt boost did not report the warm pool")
	}
	if spread, _ := est["spread"].(float64); spread < 3 {
		t.Errorf("spread %v below seed count", est["spread"])
	}
}

func TestLTStatsCounters(t *testing.T) {
	srv := newTestServer(t)
	if _, decoded := postJSON(t, srv.URL+"/v1/boost",
		`{"graph":"g","seeds":[0,20,40],"k":2,"mode":"lt","sims":900}`); decoded["error"] != nil {
		t.Fatalf("lt boost failed: %v", decoded["error"])
	}
	if _, decoded := postJSON(t, srv.URL+"/v1/boost",
		`{"graph":"g","seeds":[0,20,40],"k":2,"mode":"lt","sims":900}`); decoded["error"] != nil {
		t.Fatalf("warm lt boost failed: %v", decoded["error"])
	}
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.SimModes["lt"].BoostQueries != 2 || st.SimModes["lt"].PoolMisses != 1 || st.SimModes["lt"].PoolHits != 1 || st.SimModes["lt"].ResultHits != 1 {
		t.Errorf("lt counters = %+v, want 2 queries / 1 miss / 1 hit / 1 result hit", st.Stats)
	}
	if st.SimModes["lt"].Profiles != 900 {
		t.Errorf("lt_profiles = %d, want 900", st.SimModes["lt"].Profiles)
	}
	if st.Pools != 1 || st.PoolBytes <= 0 {
		t.Errorf("pools=%d pool_bytes=%d, want the LT pool accounted", st.Pools, st.PoolBytes)
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv := newTestServer(t)
	if _, decoded := postJSON(t, srv.URL+"/v1/boost",
		`{"graph":"g","seeds":[0,20,40],"k":2,"max_samples":2000}`); decoded["error"] != nil {
		t.Fatalf("boost failed: %v", decoded["error"])
	}

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.BoostQueries != 1 || st.PoolMisses != 1 || st.Pools != 1 {
		t.Errorf("stats = %+v, want one boost query / miss / pool", st.Stats)
	}
	if len(st.GraphIDs) != 1 || st.GraphIDs[0] != "g" {
		t.Errorf("graph_ids = %v, want [g]", st.GraphIDs)
	}

	resp2, err := http.Post(srv.URL+"/v1/stats", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/stats: status %d, want 405", resp2.StatusCode)
	}
}

// TestStatsJSONKeys pins the exact /v1/stats key set — top level plus
// every sim_modes.<mode>.* key — after an ic boost, an lt boost and a
// tiered estimate, and checks that the body decodes into Stats and
// re-encodes to the same bytes: no counter is lost or renamed on the
// way through the exported struct.
func TestStatsJSONKeys(t *testing.T) {
	srv := newTestServer(t)
	for _, req := range []struct{ path, body string }{
		{"/v1/boost", `{"graph":"g","seeds":[0,20,40],"k":2,"max_samples":2000}`},
		{"/v1/boost", `{"graph":"g","seeds":[0,20,40],"k":2,"mode":"lt","sims":300}`},
		{"/v1/estimate", `{"graph":"g","seeds":[0,20,40],"boost":[7],"max_latency_ms":50}`},
	} {
		if resp, decoded := postJSON(t, srv.URL+req.path, req.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d, body %v", req.path, req.body, resp.StatusCode, decoded)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k, v := range raw {
		if k != "sim_modes" {
			keys = append(keys, k)
			continue
		}
		var modes map[string]map[string]json.RawMessage
		if err := json.Unmarshal(v, &modes); err != nil {
			t.Fatal(err)
		}
		for mode, fields := range modes {
			for f := range fields {
				keys = append(keys, "sim_modes."+mode+"."+f)
			}
		}
	}
	sort.Strings(keys)
	want := []string{
		"boost_queries", "degraded_estimates", "estimate_queries",
		"estimate_tier0", "estimate_tier1", "estimate_tier2", "evictions",
		"graph_deletes", "graph_ids", "graph_patches", "graph_versions",
		"graphs", "invalidated_pools", "panics_recovered", "pool_bytes",
		"pool_extensions", "pool_hits", "pool_misses", "pool_rebuilds",
		"pools", "prr_generated", "repair_fallback_rebuilds",
		"repair_skipped_rebuilds", "repaired_profiles", "repaired_sketches",
		"requests_canceled", "requests_shed", "result_hits",
		"retired_pool_bytes", "seed_queries",
		"sim_modes.lt.boost_queries", "sim_modes.lt.estimate_queries",
		"sim_modes.lt.pool_extensions", "sim_modes.lt.pool_hits",
		"sim_modes.lt.pool_misses", "sim_modes.lt.profiles",
		"sim_modes.lt.result_hits", "tier_calibrations", "uploads_total",
		"uptime_seconds",
	}
	if strings.Join(keys, " ") != strings.Join(want, " ") {
		t.Errorf("/v1/stats keys:\n got %v\nwant %v", keys, want)
	}

	var st statsResponse
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&st); err != nil {
		t.Fatalf("decoding /v1/stats into Stats: %v", err)
	}
	var again bytes.Buffer
	enc := json.NewEncoder(&again)
	enc.SetIndent("", "  ")
	if err := enc.Encode(st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), body) {
		t.Errorf("re-encoded stats differ from the body:\n got %s\nwant %s", again.Bytes(), body)
	}
}
