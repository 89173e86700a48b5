#!/bin/sh
# Paired benchmark comparison: scripts/benchcmp.sh BASE [PATTERN]
#
# Compares the root package's benchmarks at git revision BASE against the
# working tree. BASE is exported with `git archive` into the gitignored
# .bench_build/base (no network), and each side is compiled once with
# `go test -c`. Then, for ROUNDS rounds, each binary runs the benchmarks
# matching PATTERN once (-test.count=1), the side that goes first
# alternating from round to round, so drift on a shared box lands on both
# sides alike. For every benchmark both sides ran it prints:
#
#   - the median of the per-round change/base ns/op ratios (< 1 is faster);
#   - wins, the rounds in which the change was faster, out of the rounds run;
#   - each side's ns/op quartiles (q1 med q3) — their spread is the noise
#     a ratio has to clear;
#   - each side's median B/op and allocs/op.
#
# This is a measuring tool, not a gate: it exits 0 whatever the numbers
# (scripts/benchgate.sh is the gate against BENCH_certify.json).
#
# Environment:
#   ROUNDS     rounds to run (default 10)
#   BENCHTIME  -test.benchtime per run (default 1s)
#   BASE_SED   sed script applied to the base side's benchmark names, to
#              pair a bench renamed between the revisions, e.g.
#              's|BulkIngestShards/shards=2|BulkIngest/100k|'
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
	echo "usage: scripts/benchcmp.sh BASE [PATTERN]" >&2
	exit 2
fi
base_rev=$1
pattern=${2:-.}
rounds=${ROUNDS:-10}
benchtime=${BENCHTIME:-1s}

cd "$(dirname "$0")/.."
root=$(pwd)
build="$root/.bench_build"
rm -rf "$build/base"
mkdir -p "$build/base"
git archive "$base_rev" | tar -x -C "$build/base"
(cd "$build/base" && go test -c -o "$build/base.test" .)
go test -c -o "$build/change.test" .

results="$build/results.txt"
: > "$results"
run() { # side dir
	(cd "$2" && "$build/$1.test" -test.run '^$' -test.bench "$pattern" \
		-test.benchtime "$benchtime" -test.benchmem -test.count 1 -test.timeout 60m) |
		awk -v side="$1" -v round="$round" '/^Benchmark.* ns\/op/ { print round, side, $0 }' >> "$results"
}
round=1
while [ "$round" -le "$rounds" ]; do
	if [ $((round % 2)) -eq 1 ]; then
		run base "$build/base"
		run change "$root"
	else
		run change "$root"
		run base "$build/base"
	fi
	echo "benchcmp: round $round/$rounds done" >&2
	round=$((round + 1))
done

# Lines: round side name iterations ns "ns/op" bytes "B/op" allocs "allocs/op".
# The -GOMAXPROCS suffix is stripped so BASE_SED sees plain names.
awk '{ sub(/-[0-9]+$/, "", $3); print }' "$results" > "$build/named.txt"
{
	awk '$2 == "base"' "$build/named.txt" | sed -e "${BASE_SED:-}"
	awk '$2 == "change"' "$build/named.txt"
} | awk '
function sortv(a, n,    i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
}
# q returns the p-quantile of a[1..n] (sorted), interpolating linearly.
function q(a, n, p,    h, lo) {
	if (n == 0) return 0
	h = (n - 1) * p + 1; lo = int(h)
	if (lo >= n) return a[n]
	return a[lo] + (h - lo) * (a[lo+1] - a[lo])
}
{
	r = $1; side = $2; name = $3
	if (!(name in order)) order[name] = ++names
	ns[side, name, r] = $5; bytes[side, name, r] = $7; allocs[side, name, r] = $9
	if (r > maxr) maxr = r
}
END {
	printf "%-44s %7s %6s %38s %38s %12s %12s %10s %10s\n", "benchmark", "ratio", "wins",
		"base ns/op q1 med q3", "change ns/op q1 med q3", "base B/op", "change B/op", "base alloc", "chg alloc"
	for (name in order) byorder[order[name]] = name
	for (k = 1; k <= names; k++) {
		name = byorder[k]
		nb = nc = np = wins = 0
		delete B; delete C; delete R; delete BB; delete CB; delete BA; delete CA
		for (r = 1; r <= maxr; r++) {
			hb = ((("base", name, r) in ns)); hc = ((("change", name, r) in ns))
			if (hb) { B[++nb] = ns["base", name, r]; BB[nb] = bytes["base", name, r]; BA[nb] = allocs["base", name, r] }
			if (hc) { C[++nc] = ns["change", name, r]; CB[nc] = bytes["change", name, r]; CA[nc] = allocs["change", name, r] }
			if (hb && hc) {
				R[++np] = ns["change", name, r] / ns["base", name, r]
				if (ns["change", name, r] < ns["base", name, r]) wins++
			}
		}
		if (np == 0) {
			printf "%-44s unpaired (base runs %d, change runs %d)\n", name, nb, nc
			continue
		}
		sortv(B, nb); sortv(C, nc); sortv(R, np); sortv(BB, nb); sortv(CB, nc); sortv(BA, nb); sortv(CA, nc)
		printf "%-44s %7.3f %3d/%-2d %12.0f %12.0f %12.0f %12.0f %12.0f %12.0f %12.0f %12.0f %10.0f %10.0f\n",
			name, q(R, np, 0.5), wins, np,
			q(B, nb, 0.25), q(B, nb, 0.5), q(B, nb, 0.75),
			q(C, nc, 0.25), q(C, nc, 0.5), q(C, nc, 0.75),
			q(BB, nb, 0.5), q(CB, nc, 0.5), q(BA, nb, 0.5), q(CA, nc, 0.5)
	}
}'
