#!/usr/bin/env bash
# Paired same-host benchmark gate: runs a set of benchmarks on a base
# revision and on the working tree, alternately, and fails when the
# working tree is slower or allocates more beyond the gate.
#
#   bash scripts/bench-gate.sh BASE PKG=REGEX [PKG=REGEX...]
#
# BASE is exported with `git archive` into .bench_build/gate/base, so it
# must be a committed revision; the working tree is used as it is,
# uncommitted changes included. A BASE that resolves to HEAD with no
# tracked changes in the working tree compares a tree with itself, so
# it is refused unless it is spelled HEAD: `BASE=HEAD` is the gate's
# self-test. Each PKG's test binary is compiled once per tree. Every
# one of 5 rounds then runs each package on both trees back to back,
# the tree that goes first alternating from round to round (A/B, B/A,
# ...); a round's result for a benchmark is the fastest of three runs.
# `benchjson -paired` gates the median per-round ns/op ratio and the
# median allocs/op of every benchmark that ran at 25%. Both trees run
# at the host's GOMAXPROCS. Raw output stays in .bench_build/gate/.
# $GO names the go command (default: go).
set -euo pipefail
GO=${GO:-go}
rounds=5

if [ "$#" -lt 2 ]; then
	echo "usage: $0 BASE PKG=REGEX..." >&2
	exit 2
fi
base_rev=$1
shift

root="$(git rev-parse --show-toplevel)"
base_commit=$(git -C "$root" rev-parse --verify "$base_rev^{commit}")
if [ "$base_commit" = "$(git -C "$root" rev-parse HEAD)" ] && git -C "$root" diff --quiet HEAD; then
	if [ "$base_rev" != HEAD ]; then
		echo "bench-gate: BASE $base_rev is HEAD and the working tree has no changes: nothing to compare; pass BASE=<rev>, or BASE=HEAD for the self-test" >&2
		exit 2
	fi
	echo "bench-gate: SELF-TEST: comparing HEAD with itself; this run cannot catch a regression" >&2
fi
out="$root/.bench_build/gate"
rm -rf "$out"
mkdir -p "$out/base"
git -C "$root" archive "$base_commit" | tar -x -C "$out/base"
echo "bench-gate: base $(git -C "$root" rev-parse --short "$base_commit") vs working tree, $rounds rounds" >&2

specs=("$@")
for i in "${!specs[@]}"; do
	pkg=${specs[$i]%%=*}
	(cd "$out/base" && "$GO" test -c -o "$out/base.$i.test" "$pkg")
	(cd "$root" && "$GO" test -c -o "$out/cur.$i.test" "$pkg")
done

# run_pkg SIDE DIR I runs package I's benchmarks on one tree, from the
# package directory as `go test` would, and keeps each benchmark's
# fastest of three runs: on a shared host, noise only ever adds time,
# so the minimum is the steadiest estimate of a run's cost.
run_pkg() {
	local side=$1 dir=$2 i=$3
	local pkg=${specs[$i]%%=*} regex=${specs[$i]#*=}
	(cd "$dir/$pkg" && "$out/$side.$i.test" -test.run '^$' -test.bench "$regex" -test.benchmem -test.count 3 -test.timeout 30m) |
		awk '/^Benchmark/ {
			if (!($1 in best)) order[++n] = $1
			if (!($1 in best) || $3 + 0 < best[$1]) { best[$1] = $3 + 0; line[$1] = $0 }
		}
		END { for (j = 1; j <= n; j++) print line[order[j]] }' >"$out/last.txt"
	cat "$out/last.txt" >>"$out/$side.txt"
	sed "s/^/$side: /" "$out/last.txt" >&2
}

# Each round runs every package on both trees back to back, so the two
# runs of a pair are close in time; the tree that goes first alternates.
: >"$out/base.txt"
: >"$out/cur.txt"
for ((round = 1; round <= rounds; round++)); do
	echo "bench-gate: round $round/$rounds" >&2
	for i in "${!specs[@]}"; do
		if ((round % 2 == 1)); then
			run_pkg base "$out/base" "$i"
			run_pkg cur "$root" "$i"
		else
			run_pkg cur "$root" "$i"
			run_pkg base "$out/base" "$i"
		fi
	done
done

cd "$root"
"$GO" run ./cmd/benchjson <"$out/base.txt" >"$out/base.json"
"$GO" run ./cmd/benchjson <"$out/cur.txt" >"$out/cur.json"
"$GO" run ./cmd/benchjson -paired -baseline "$out/base.json" -current "$out/cur.json" \
	-max-regress 0.25 -max-alloc-regress 0.25
