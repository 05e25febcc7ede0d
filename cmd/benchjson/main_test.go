package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseLineBenchmem(t *testing.T) {
	res, ok := parseLine("BenchmarkExtendIncremental/oneshot-8   25   44009638 ns/op   1710227 B/op   1509 allocs/op")
	if !ok {
		t.Fatal("line did not parse")
	}
	if res.Name != "BenchmarkExtendIncremental/oneshot-8" || res.Iterations != 25 {
		t.Fatalf("bad header: %+v", res)
	}
	if res.NsPerOp != 44009638 || res.BytesPerOp != 1710227 || res.AllocsPerOp != 1509 {
		t.Fatalf("bad columns: %+v", res)
	}
	if len(res.Metrics) != 0 {
		t.Fatalf("benchmem columns leaked into metrics: %+v", res.Metrics)
	}
}

func TestParseLineExtraMetric(t *testing.T) {
	res, ok := parseLine("BenchmarkPRREval   100   26491 ns/op   479.0 graphs/op")
	if !ok {
		t.Fatal("line did not parse")
	}
	if res.Metrics["graphs/op"] != 479 {
		t.Fatalf("metrics = %+v", res.Metrics)
	}
}

func TestNormalizeName(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFoo/sub-8":    "BenchmarkFoo/sub",
		"BenchmarkFoo-16":       "BenchmarkFoo",
		"BenchmarkFoo":          "BenchmarkFoo",
		"BenchmarkFoo/warm-k20": "BenchmarkFoo/warm-k20", // non-numeric suffix kept
		"BenchmarkFoo-":         "BenchmarkFoo-",
	}
	for in, want := range cases {
		if got := normalizeName(in); got != want {
			t.Errorf("normalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func writeJSON(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestComparePairedGate(t *testing.T) {
	dir := t.TempDir()
	// Five rounds; the host slowed down in round 3 for both sides and
	// round 5 hiccupped on the current side only.
	base := writeJSON(t, dir, "base.json", `[
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 1000, "allocs_per_op": 4},
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 1010, "allocs_per_op": 4},
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 2000, "allocs_per_op": 4},
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 990, "allocs_per_op": 4},
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 1000, "allocs_per_op": 4}
	]`)
	ok := writeJSON(t, dir, "ok.json", `[
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 1100, "allocs_per_op": 4},
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 1050, "allocs_per_op": 4},
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 2300, "allocs_per_op": 4},
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 1000, "allocs_per_op": 4},
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 9000, "allocs_per_op": 4}
	]`)
	if err := comparePaired(base, ok, "Warm", 0.25, 0.25, &strings.Builder{}); err != nil {
		t.Fatalf("within-gate paired compare failed: %v", err)
	}

	// A steady 30% slowdown fails even though every current run is
	// faster than the base's slow round 3.
	slow := writeJSON(t, dir, "slow.json", `[
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 1300, "allocs_per_op": 4},
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 1313, "allocs_per_op": 4},
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 1900, "allocs_per_op": 4},
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 1287, "allocs_per_op": 4},
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 1300, "allocs_per_op": 4}
	]`)
	err := comparePaired(base, slow, "Warm", 0.25, 0.25, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "BenchmarkWarmA") {
		t.Fatalf("30%% paired slowdown passed the gate: %v", err)
	}

	if err := comparePaired(base, ok, "NoSuchBench", 0.25, 0.25, &strings.Builder{}); err == nil {
		t.Fatal("empty paired comparison passed the gate")
	}
}

func TestCompareAllocGate(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", `[
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 1000, "allocs_per_op": 4},
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 1010, "allocs_per_op": 4},
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 2000, "allocs_per_op": 4},
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 990, "allocs_per_op": 4},
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 1000, "allocs_per_op": 4}
	]`)

	// One extra allocation per op (4 -> 6) fails the alloc gate.
	allocs := writeJSON(t, dir, "allocs.json", `[
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 1000, "allocs_per_op": 6},
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 1000, "allocs_per_op": 6},
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 2000, "allocs_per_op": 6},
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 990, "allocs_per_op": 6},
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 1000, "allocs_per_op": 6}
	]`)
	if err := comparePaired(base, allocs, "Warm", 0.25, 0.25, &strings.Builder{}); err == nil {
		t.Fatal("alloc regression passed the paired gate")
	}
	// A negative budget disables the alloc gate entirely.
	if err := comparePaired(base, allocs, "Warm", 0.25, -1, &strings.Builder{}); err != nil {
		t.Fatalf("disabled alloc gate still failed: %v", err)
	}

	// An alloc-free benchmark must stay alloc-free: one allocation in
	// the median fails however small the budget's absolute slack.
	free := writeJSON(t, dir, "free.json", `[
		{"name": "BenchmarkWarmZ-2", "iterations": 10, "ns_per_op": 100},
		{"name": "BenchmarkWarmZ-2", "iterations": 10, "ns_per_op": 100},
		{"name": "BenchmarkWarmZ-2", "iterations": 10, "ns_per_op": 100}
	]`)
	leaked := writeJSON(t, dir, "leaked.json", `[
		{"name": "BenchmarkWarmZ-2", "iterations": 10, "ns_per_op": 100, "allocs_per_op": 1},
		{"name": "BenchmarkWarmZ-2", "iterations": 10, "ns_per_op": 100, "allocs_per_op": 1},
		{"name": "BenchmarkWarmZ-2", "iterations": 10, "ns_per_op": 100}
	]`)
	if err := comparePaired(free, free, "Warm", 0.25, 0.25, &strings.Builder{}); err != nil {
		t.Fatalf("alloc-free benchmark against itself failed: %v", err)
	}
	err := comparePaired(free, leaked, "Warm", 0.25, 0.25, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "was alloc-free") {
		t.Fatalf("alloc-free benchmark grew an allocation and passed the gate: %v", err)
	}
	if err := comparePaired(free, leaked, "Warm", 0.25, -1, &strings.Builder{}); err != nil {
		t.Fatalf("disabled alloc gate still failed: %v", err)
	}
}
