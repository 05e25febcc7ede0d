package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strings"
)

// allocRegression describes an allocs/op regression from base to cur
// beyond maxAllocRegress, or returns "" if there is none. An alloc-free
// base must stay alloc-free; maxAllocRegress < 0 disables the check.
func allocRegression(name string, base, cur, maxAllocRegress float64) string {
	switch {
	case maxAllocRegress < 0:
		return ""
	case base == 0 && cur > 0:
		return fmt.Sprintf("%s: 0 -> %.0f allocs/op (was alloc-free)", name, cur)
	case base > 0 && cur/base > 1+maxAllocRegress:
		return fmt.Sprintf("%s: %.0f -> %.0f allocs/op (%+.1f%%)", name, base, cur, (cur/base-1)*100)
	}
	return ""
}

// normalizeName strips the trailing -GOMAXPROCS suffix go test appends
// to benchmark names ("BenchmarkFoo/sub-8" -> "BenchmarkFoo/sub").
func normalizeName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	if i+1 == len(name) {
		return name
	}
	return name[:i]
}

// comparePaired is the paired same-host gate: basePath and currentPath
// hold the same benchmarks run alternately on one host, the base tree
// and the current tree taking turns each round, so entry i of a name on
// one side ran next to entry i on the other. For every name present on
// both sides (and matching filter) it takes the per-round ratio
// current/base ns/op and fails when the median ratio exceeds
// 1+maxRegress; pairing cancels host speed, and the median over rounds
// discards a round that one scheduler hiccup spoiled.
//
// Allocation counts are compared as per-name medians (allocRegression).
// They are exact, not timing-noise-dependent, so the alloc gate catches
// an accidental per-call allocation on a warm path even on a noisy
// host. A benchmark whose base reports zero allocs/op must stay at
// zero (the gate always runs with -benchmem, so zero means alloc-free,
// not unmeasured); with maxAllocRegress < 0 the alloc gate is disabled.
//
// Benchmark names carry a -GOMAXPROCS suffix (e.g. "/incremental-8");
// names are normalized before matching.
func comparePaired(basePath, currentPath, filter string, maxRegress, maxAllocRegress float64, w io.Writer) error {
	if currentPath == "" {
		return fmt.Errorf("paired mode needs -current")
	}
	base, order, err := loadRounds(basePath)
	if err != nil {
		return fmt.Errorf("base: %w", err)
	}
	cur, _, err := loadRounds(currentPath)
	if err != nil {
		return fmt.Errorf("current: %w", err)
	}
	keep, err := regexp.Compile(filter)
	if err != nil {
		return fmt.Errorf("filter: %w", err)
	}

	var regressions []string
	compared := 0
	for _, name := range order {
		if !keep.MatchString(name) {
			continue
		}
		b, c := base[name], cur[name]
		if len(c) == 0 {
			fmt.Fprintf(w, "benchjson: %s: not run on the current tree, skipping\n", name)
			continue
		}
		n := min(len(b), len(c))
		ratios := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			if b[i].NsPerOp > 0 {
				ratios = append(ratios, c[i].NsPerOp/b[i].NsPerOp)
			}
		}
		if len(ratios) == 0 {
			continue
		}
		compared++
		ratio := median(ratios)
		bAllocs, cAllocs := medianOf(b[:n], allocsPerOp), medianOf(c[:n], allocsPerOp)
		status := "ok"
		if ratio > 1+maxRegress {
			status = "REGRESSION"
			regressions = append(regressions, fmt.Sprintf("%s: median paired ratio %.3f (%+.1f%%) over %d rounds",
				name, ratio, (ratio-1)*100, len(ratios)))
		}
		if msg := allocRegression(name, bAllocs, cAllocs, maxAllocRegress); msg != "" {
			status = "REGRESSION"
			regressions = append(regressions, msg)
		}
		fmt.Fprintf(w, "benchjson: %-50s %12.0f -> %12.0f ns/op  median ratio %.3f (%+6.1f%%, %d rounds)  %4.0f -> %4.0f allocs/op  %s\n",
			name, medianOf(b[:n], nsPerOp), medianOf(c[:n], nsPerOp), ratio, (ratio-1)*100, len(ratios), bAllocs, cAllocs, status)
	}
	if compared == 0 {
		return fmt.Errorf("no benchmarks matched filter %q on both sides", filter)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("paired regression beyond the gate (%.0f%% ns/op, %.0f%% allocs/op) on:\n  %s",
			maxRegress*100, maxAllocRegress*100, strings.Join(regressions, "\n  "))
	}
	fmt.Fprintf(w, "benchjson: %d benchmark(s) within the %.0f%% paired gate\n", compared, maxRegress*100)
	return nil
}

// loadRounds reads a benchjson output file into per-name entry lists in
// file order (one entry per round) and returns the names in first-seen
// order.
func loadRounds(path string) (map[string][]result, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var results []result
	if err := json.Unmarshal(data, &results); err != nil {
		return nil, nil, err
	}
	byName := make(map[string][]result)
	var order []string
	for _, r := range results {
		name := normalizeName(r.Name)
		if _, seen := byName[name]; !seen {
			order = append(order, name)
		}
		byName[name] = append(byName[name], r)
	}
	return byName, order, nil
}

// median returns the median of xs (the mean of the middle two for an
// even count). It sorts xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

// medianOf returns the median of field over rs.
func medianOf(rs []result, field func(result) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = field(r)
	}
	return median(xs)
}

func nsPerOp(r result) float64     { return r.NsPerOp }
func allocsPerOp(r result) float64 { return r.AllocsPerOp }
