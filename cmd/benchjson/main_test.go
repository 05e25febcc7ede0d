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

func TestCompareGate(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", `[
		{"name": "BenchmarkWarmA-8", "iterations": 10, "ns_per_op": 1000},
		{"name": "BenchmarkWarmB-8", "iterations": 10, "ns_per_op": 2000},
		{"name": "BenchmarkColdC-8", "iterations": 10, "ns_per_op": 50}
	]`)

	// Within the gate: 20% slower on a 25% budget, different GOMAXPROCS
	// suffix, and a new benchmark with no baseline.
	cur := writeJSON(t, dir, "ok.json", `[
		{"name": "BenchmarkWarmA-16", "iterations": 10, "ns_per_op": 1200},
		{"name": "BenchmarkWarmB-16", "iterations": 10, "ns_per_op": 1500},
		{"name": "BenchmarkWarmNew-16", "iterations": 10, "ns_per_op": 9999}
	]`)
	if err := compare(base, cur, "Warm", 0.25, 0.25, &strings.Builder{}); err != nil {
		t.Fatalf("within-gate compare failed: %v", err)
	}

	// Beyond the gate: 50% slower must fail, and the failure must name
	// the offender.
	bad := writeJSON(t, dir, "bad.json", `[
		{"name": "BenchmarkWarmA-16", "iterations": 10, "ns_per_op": 1500},
		{"name": "BenchmarkColdC-16", "iterations": 10, "ns_per_op": 500}
	]`)
	err := compare(base, bad, "Warm", 0.25, 0.25, &strings.Builder{})
	if err == nil {
		t.Fatal("regression passed the gate")
	}
	if !strings.Contains(err.Error(), "BenchmarkWarmA") {
		t.Fatalf("error does not name the regression: %v", err)
	}
	// The filter must exclude the (also regressed) cold benchmark.
	if strings.Contains(err.Error(), "ColdC") {
		t.Fatalf("filter leaked cold benchmarks into the gate: %v", err)
	}

	// No overlap at all is an error, not a silent pass.
	if err := compare(base, cur, "NoSuchBench", 0.25, 0.25, &strings.Builder{}); err == nil {
		t.Fatal("empty comparison passed the gate")
	}

	// The filter is a regexp: an alternation covers disjoint benchmark
	// families (e.g. 'Warm|PatchRepair'), and a bad
	// pattern is an error rather than a match-nothing pass.
	err = compare(base, bad, "Warm|ColdC", 0.25, 0.25, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "ColdC") {
		t.Fatalf("alternation filter did not gate both families: %v", err)
	}
	if err := compare(base, bad, "Warm|(", 0.25, 0.25, &strings.Builder{}); err == nil {
		t.Fatal("invalid filter regexp passed the gate")
	}
}

func TestCompareAllocGate(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", `[
		{"name": "BenchmarkWarmA-8", "iterations": 10, "ns_per_op": 1000, "allocs_per_op": 8},
		{"name": "BenchmarkWarmB-8", "iterations": 10, "ns_per_op": 1000}
	]`)

	// Allocs within the 25% budget (8 -> 10), zero-alloc stays zero.
	ok := writeJSON(t, dir, "ok.json", `[
		{"name": "BenchmarkWarmA-16", "iterations": 10, "ns_per_op": 1000, "allocs_per_op": 10},
		{"name": "BenchmarkWarmB-16", "iterations": 10, "ns_per_op": 1000}
	]`)
	if err := compare(base, ok, "Warm", 0.25, 0.25, &strings.Builder{}); err != nil {
		t.Fatalf("within-gate alloc compare failed: %v", err)
	}

	// 8 -> 12 allocs/op is +50%: beyond the gate even with flat ns/op.
	grew := writeJSON(t, dir, "grew.json", `[
		{"name": "BenchmarkWarmA-16", "iterations": 10, "ns_per_op": 1000, "allocs_per_op": 12}
	]`)
	err := compare(base, grew, "Warm", 0.25, 0.25, &strings.Builder{})
	if err == nil {
		t.Fatal("alloc regression passed the gate")
	}
	if !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("error does not mention allocs: %v", err)
	}

	// A formerly alloc-free benchmark picking up any allocation fails.
	leaked := writeJSON(t, dir, "leaked.json", `[
		{"name": "BenchmarkWarmB-16", "iterations": 10, "ns_per_op": 1000, "allocs_per_op": 1}
	]`)
	if err := compare(base, leaked, "Warm", 0.25, 0.25, &strings.Builder{}); err == nil {
		t.Fatal("alloc-free benchmark grew an allocation and passed the gate")
	}

	// Negative budget disables the alloc gate entirely.
	if err := compare(base, grew, "Warm", 0.25, -1, &strings.Builder{}); err != nil {
		t.Fatalf("disabled alloc gate still failed: %v", err)
	}
}

func TestLoadResultsAggregation(t *testing.T) {
	dir := t.TempDir()
	path := writeJSON(t, dir, "multi.json", `[
		{"name": "BenchmarkWarmA-8", "iterations": 10, "ns_per_op": 1500},
		{"name": "BenchmarkWarmA-8", "iterations": 10, "ns_per_op": 900},
		{"name": "BenchmarkWarmA-8", "iterations": 10, "ns_per_op": 1100}
	]`)
	res, err := loadResults(path, pickMin)
	if err != nil {
		t.Fatal(err)
	}
	if got := res["BenchmarkWarmA"].NsPerOp; got != 900 {
		t.Fatalf("pickMin kept %v ns/op, want the 900 minimum", got)
	}
	res, err = loadResults(path, pickMedian)
	if err != nil {
		t.Fatal(err)
	}
	if got := res["BenchmarkWarmA"].NsPerOp; got != 1100 {
		t.Fatalf("pickMedian kept %v ns/op, want the 1100 median", got)
	}
}

// The gate compares min-of-current against median-of-baseline: one
// lucky baseline run out of three must not tighten the gate.
func TestCompareGateMedianBaseline(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", `[
		{"name": "BenchmarkWarmA-8", "iterations": 10, "ns_per_op": 700},
		{"name": "BenchmarkWarmA-8", "iterations": 10, "ns_per_op": 1000},
		{"name": "BenchmarkWarmA-8", "iterations": 10, "ns_per_op": 1050}
	]`)
	// 1200 is +71% over the lucky 700 but +20% over the 1000 median.
	cur := writeJSON(t, dir, "cur.json", `[
		{"name": "BenchmarkWarmA-8", "iterations": 10, "ns_per_op": 1400},
		{"name": "BenchmarkWarmA-8", "iterations": 10, "ns_per_op": 1200}
	]`)
	if err := compare(base, cur, "Warm", 0.25, 0.25, &strings.Builder{}); err != nil {
		t.Fatalf("min-vs-median compare failed: %v", err)
	}
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

	if err := comparePaired(base, ok, "NoSuchBench", 0.25, 0.25, &strings.Builder{}); err == nil {
		t.Fatal("empty paired comparison passed the gate")
	}
}
