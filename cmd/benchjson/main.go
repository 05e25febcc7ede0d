// Command benchjson converts `go test -bench` text output on stdin
// into a JSON array on stdout, one object per benchmark result with the
// parsed ns/op, the -benchmem allocation columns (bytes_per_op,
// allocs_per_op) and any extra ReportMetric pairs. The Makefile's bench
// target uses it to emit BENCH_select.json so selection-performance
// regressions are diffable across commits.
//
//	go test -run '^$' -bench SelectDeltaWarm -benchmem ./internal/prr | benchjson
//
// With -paired and -baseline it instead compares two such files, a
// base tree's results recorded next to -current's on the same host,
// one entry per round, and fails when the median per-round ns/op ratio
// or the median allocs/op of a benchmark matching -filter (default:
// all) regresses beyond the gate (see comparePaired); this is what
// `make bench-gate` runs:
//
//	benchjson -paired -baseline base.json -current cur.json \
//	          -max-regress 0.25 -max-alloc-regress 0.25
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// result is one parsed benchmark line.
type result struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are the -benchmem columns; zero when a
	// benchmark was run without it.
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	fs := flag.NewFlagSet("benchjson", flag.ExitOnError)
	var (
		baseline        = fs.String("baseline", "", "with -paired: the base tree's JSON")
		current         = fs.String("current", "", "with -paired: the current tree's JSON, compared against -baseline")
		filter          = fs.String("filter", "", "regexp selecting which benchmarks the compare gate covers")
		maxRegress      = fs.Float64("max-regress", 0.25, "maximum tolerated fractional ns/op regression")
		maxAllocRegress = fs.Float64("max-alloc-regress", 0.25, "maximum tolerated fractional allocs/op regression (negative disables the alloc gate)")
		paired          = fs.Bool("paired", false, "compare per-round pairs of -baseline's and -current's results, recorded alternately on one host")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	var err error
	switch {
	case *baseline != "" && *paired:
		err = comparePaired(*baseline, *current, *filter, *maxRegress, *maxAllocRegress, os.Stdout)
	case *baseline != "" || *paired:
		err = fmt.Errorf("-paired and -baseline go together: the paired gate is the only compare mode")
	default:
		err = run()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run() error {
	var results []result
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		res, ok := parseLine(line)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: skipping unparseable line: %s\n", line)
			continue
		}
		results = append(results, res)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// parseLine parses one benchmark result line:
//
//	BenchmarkName/sub-8   1114   1048074 ns/op   2048 B/op   12 allocs/op   12.5 extra/op
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	res := result{Name: fields[0], Iterations: iters}
	// The rest of the line is (value, unit) pairs.
	sawNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
			sawNs = true
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		default:
			if res.Metrics == nil {
				res.Metrics = make(map[string]float64)
			}
			res.Metrics[unit] = v
		}
	}
	return res, sawNs
}
