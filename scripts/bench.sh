#!/bin/sh
# Certification benchmark harness: runs the certification benches
# (BenchmarkCertifyCold, Certify's kernel pass over every row, and
# BenchmarkCertifySummary), the bulk-ingest bench (BenchmarkBulkIngest,
# 100k providers into an empty store), the durable-ingest benches
# (BenchmarkIngestDurable, one sub-bench per WAL group-commit mode), the
# enforced-query benches (BenchmarkQueryEnforced, clean vs violating
# populations at 10k/100k rows), the what-if storm benches
# (BenchmarkWhatIfStorm with implicit zeros off and BenchmarkWhatIfShipped
# in the server's configuration, narrow vs full diff over 100k providers), the
# HTTP certify benches (BenchmarkCertifyHTTP, GET /v1/certify through the
# handler at 1k/100k providers, and shipped-20k: perfbench's 20k providers
# under its policy A), the compile bench (BenchmarkCompile, one
# perfbench-shaped provider), the policy-swap bench (BenchmarkSetPolicy,
# 100k providers, implicit zeros on) and the WAL recovery bench
# (BenchmarkWALReplay, AttachWAL replaying perfbench's 20k providers from
# ~1 MiB batch records into a fresh store) and records ns/op, B/op and allocs/op
# into BENCH_certify.json at the repo root. Wired as `make bench`; not part of
# `make check`.
#
# BENCH_PATTERN restricts the run to a subset (e.g.
# '^Benchmark(BulkIngest|SetPolicy)$'); entries already
# in BENCH_certify.json whose benchmarks were not re-run are carried over,
# so a partial run never loses the rest of the baseline.
#
# BENCHTIME overrides -benchtime (e.g. BENCHTIME=10x for a quick smoke run).
#
# Each entry this run writes is stamped with the commit it measured (short
# hash, "-dirty" when tracked files other than BENCH_certify.json differ
# from it), the Go version, the GOMAXPROCS it ran at (the -N suffix of its
# name; none means 1), the host's CPU count and the UTC date. Carried-over
# entries keep their own stamps.
set -eu

cd "$(dirname "$0")/.."

commit=$(git rev-parse --short=7 HEAD 2>/dev/null || echo unknown)
if ! git diff --quiet HEAD -- . ':(exclude)BENCH_certify.json' 2>/dev/null; then
	commit="$commit-dirty"
fi
gover=$(go env GOVERSION)
ncpu=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)
day=$(date -u +%Y-%m-%d)

pattern="${BENCH_PATTERN:-^Benchmark(Certify(Cold|Summary|HTTP)|BulkIngest|IngestDurable|QueryEnforced|WhatIf(Storm|Shipped)|Compile|SetPolicy|WALReplay)}"
out=$(go test -run '^$' -bench "$pattern" \
	-benchtime "${BENCHTIME:-1s}" -benchmem -timeout 30m .)
printf '%s\n' "$out"

# Merge: previous baseline entries first (in their recorded order), then
# fresh results override matching names and append new ones. The trailing
# `echo` guarantees the baseline stream is never empty, so awk's NR==FNR
# first-file detection stays sound.
prev=$(mktemp)
{ cat BENCH_certify.json 2>/dev/null || true; echo; } > "$prev"

printf '%s\n' "$out" | awk -v commit="$commit" -v gover="$gover" -v ncpu="$ncpu" -v day="$day" '
NR == FNR {
	# Baseline lines look like
	# {"name": "BenchmarkCertifyCold/1k", "ns_per_op": 2778438, "bytes_per_op": 960, "allocs_per_op": 12, "commit": "bc795a3", "go": "go1.24.0", "gomaxprocs": 2, "nproc": 2, "date": "2026-10-19"},
	# (bytes_per_op, allocs_per_op and the stamp are absent in older
	# baselines and carried as such).
	if (match($0, /"name": "[^"]+"/)) {
		name = substr($0, RSTART + 9, RLENGTH - 10)
		if (match($0, /"ns_per_op": [0-9.]+/)) {
			if (!(name in vals)) names[++n] = name
			vals[name] = substr($0, RSTART + 13, RLENGTH - 13) + 0
			if (match($0, /"bytes_per_op": [0-9.]+/))
				bytes[name] = substr($0, RSTART + 16, RLENGTH - 16) + 0
			if (match($0, /"allocs_per_op": [0-9.]+/))
				allocs[name] = substr($0, RSTART + 17, RLENGTH - 17) + 0
			if (match($0, /"commit": .*"date": "[^"]*"/))
				stamp[name] = substr($0, RSTART, RLENGTH)
		}
	}
	next
}
/^Benchmark(Certify(Cold|Summary|HTTP)|BulkIngest|Ingest|Query|WhatIf|Compile|SetPolicy|WALReplay)/ {
	# -benchmem lines: name iters ns/op-value "ns/op" B-value "B/op"
	# allocs-value "allocs/op". The name ends in -GOMAXPROCS unless that
	# is 1.
	name = $1; procs = 1
	if (match(name, /-[0-9]+$/)) {
		procs = substr(name, RSTART + 1)
		name = substr(name, 1, RSTART - 1)
	}
	if (!(name in vals)) names[++n] = name
	vals[name] = $3
	if (NF >= 6 && $6 == "B/op") bytes[name] = $5
	if (NF >= 8 && $8 == "allocs/op") allocs[name] = $7
	stamp[name] = sprintf("\"commit\": \"%s\", \"go\": \"%s\", \"gomaxprocs\": %s, \"nproc\": %s, \"date\": \"%s\"", commit, gover, procs, ncpu, day)
}
END {
	printf "{\n  \"benchmarks\": [\n"
	for (i = 1; i <= n; i++) {
		printf "    {\"name\": \"%s\", \"ns_per_op\": %s", names[i], vals[names[i]]
		if (names[i] in bytes)
			printf ", \"bytes_per_op\": %s", bytes[names[i]]
		if (names[i] in allocs)
			printf ", \"allocs_per_op\": %s", allocs[names[i]]
		if (names[i] in stamp)
			printf ", %s", stamp[names[i]]
		printf "}%s\n", (i < n ? "," : "")
	}
	printf "  ]\n}\n"
}' "$prev" - > BENCH_certify.json
rm -f "$prev"

echo "wrote BENCH_certify.json"
