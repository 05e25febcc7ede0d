package main

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// TestComparePairedReportsCurrentOnly checks that a filtered benchmark
// only the current tree has, new or renamed, gets a line saying it was
// not compared, and that it neither fails nor counts toward the gate.
func TestComparePairedReportsCurrentOnly(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", `[
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 1000, "allocs_per_op": 4},
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 1000, "allocs_per_op": 4}
	]`)
	cur := writeJSON(t, dir, "cur.json", `[
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 1000, "allocs_per_op": 4},
		{"name": "BenchmarkWarmNew-2", "iterations": 10, "ns_per_op": 9000, "allocs_per_op": 40},
		{"name": "BenchmarkColdNew-2", "iterations": 10, "ns_per_op": 9000, "allocs_per_op": 40},
		{"name": "BenchmarkWarmA-2", "iterations": 10, "ns_per_op": 1000, "allocs_per_op": 4},
		{"name": "BenchmarkWarmNew-2", "iterations": 10, "ns_per_op": 9000, "allocs_per_op": 40}
	]`)
	var out strings.Builder
	if err := comparePaired(base, cur, "Warm", 0.25, 0.25, &out); err != nil {
		t.Fatalf("paired compare failed: %v", err)
	}
	got := out.String()
	if n := strings.Count(got, "benchjson: BenchmarkWarmNew: not in the base tree, not compared\n"); n != 1 {
		t.Errorf("current-only benchmark reported %d times, want once:\n%s", n, got)
	}
	if strings.Contains(got, "ColdNew") {
		t.Errorf("a benchmark outside the filter was reported:\n%s", got)
	}
	if !strings.Contains(got, "1 benchmark(s) within") {
		t.Errorf("the current-only benchmark counted toward the gate:\n%s", got)
	}
	if err := comparePaired(base, cur, "WarmNew", 0.25, 0.25, &strings.Builder{}); err == nil {
		t.Fatal("a filter matching only a current-only benchmark passed with nothing compared")
	}
}

// TestRecordRoundTrip checks that convert stamps its record with the
// host and that the paired loader reads the round files the gate
// writes — interleaved rounds of `go test` output with the package
// headers — with every name's rounds in order, as well as a bare
// result array.
func TestRecordRoundTrip(t *testing.T) {
	const rounds = `goos: linux
goarch: amd64
pkg: example.com/a
cpu: Example CPU @ 2.00GHz
BenchmarkWarmA-2   	     100	      1000 ns/op	     512 B/op	       4 allocs/op
BenchmarkWarmB/sub-2	      50	      2000 ns/op
PASS
pkg: example.com/a
cpu: Other CPU
BenchmarkWarmA-2   	     100	      1100 ns/op	     512 B/op	       4 allocs/op
BenchmarkWarmB/sub-2	      50	      2100 ns/op
`
	var buf bytes.Buffer
	if err := convert(strings.NewReader(rounds), &buf); err != nil {
		t.Fatal(err)
	}
	var rec record
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if h := rec.Host; h.CPU != "Example CPU @ 2.00GHz" || h.NProc < 1 || h.GOMAXPROCS < 1 || h.GoVersion == "" || h.GOOS == "" || h.GOARCH == "" {
		t.Fatalf("host stamp %+v", h)
	}
	dir := t.TempDir()
	for _, path := range []string{
		writeJSON(t, dir, "record.json", buf.String()),
		writeJSON(t, dir, "array.json", `[
			{"name": "BenchmarkWarmA-2", "iterations": 100, "ns_per_op": 1000},
			{"name": "BenchmarkWarmB/sub-2", "iterations": 50, "ns_per_op": 2000},
			{"name": "BenchmarkWarmA-2", "iterations": 100, "ns_per_op": 1100},
			{"name": "BenchmarkWarmB/sub-2", "iterations": 50, "ns_per_op": 2100}
		]`),
	} {
		byName, order, err := loadRounds(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if fmt.Sprint(order) != "[BenchmarkWarmA BenchmarkWarmB/sub]" {
			t.Fatalf("%s: names %v", path, order)
		}
		var ns []float64
		for _, name := range order {
			for _, r := range byName[name] {
				ns = append(ns, r.NsPerOp)
			}
		}
		if fmt.Sprint(ns) != "[1000 1100 2000 2100]" {
			t.Fatalf("%s: per-name rounds %v", path, ns)
		}
	}
	rec1 := filepath.Join(dir, "record.json")
	if err := comparePaired(rec1, rec1, "Warm", 0.25, 0.25, &strings.Builder{}); err != nil {
		t.Fatalf("a record against itself failed the gate: %v", err)
	}
}
