#!/bin/sh
# Certification benchmark harness: runs the certification benches
# (BenchmarkCertifyCold / BenchmarkCertifyIncremental /
# BenchmarkCertifySummary), the sharding benches
# (BenchmarkCertifyColdShards / BenchmarkBulkIngestShards, one sub-bench
# per shard count — see bench_test.go) and the durable-ingest benches
# (BenchmarkIngestDurable, one sub-bench per WAL group-commit mode), the
# enforced-query benches (BenchmarkQueryEnforced, clean vs violating
# populations at 10k/100k rows), the what-if storm benches
# (BenchmarkWhatIfStorm with implicit zeros off and BenchmarkWhatIfShipped
# in the server's configuration, narrow vs full diff over 100k providers), the
# HTTP certify benches (BenchmarkCertifyHTTP, GET /v1/certify through the
# handler at 1k/100k providers) and records ns/op, B/op and allocs/op
# plus the cold→incremental speedup per population size into
# BENCH_certify.json at the repo root. Wired as `make bench`; not part of
# `make check`.
#
# BENCH_PATTERN restricts the run to a subset (e.g. `make bench-shards`
# sets '^Benchmark(CertifyColdShards|BulkIngestShards)'); entries already
# in BENCH_certify.json whose benchmarks were not re-run are carried over,
# so a partial run never loses the rest of the baseline.
#
# BENCHTIME overrides -benchtime (e.g. BENCHTIME=10x for a quick smoke run).
set -eu

cd "$(dirname "$0")/.."

pattern="${BENCH_PATTERN:-^Benchmark(Certify(Cold|ColdShards|Incremental|Summary|HTTP)|BulkIngestShards|IngestDurable|QueryEnforced|WhatIf(Storm|Shipped))}"
out=$(go test -run '^$' -bench "$pattern" \
	-benchtime "${BENCHTIME:-1s}" -benchmem -timeout 30m .)
printf '%s\n' "$out"

# Merge: previous baseline entries first (in their recorded order), then
# fresh results override matching names and append new ones. The trailing
# `echo` guarantees the baseline stream is never empty, so awk's NR==FNR
# first-file detection stays sound.
prev=$(mktemp)
{ cat BENCH_certify.json 2>/dev/null || true; echo; } > "$prev"

printf '%s\n' "$out" | awk '
NR == FNR {
	# Baseline lines look like
	# {"name": "BenchmarkCertifyCold/1k", "ns_per_op": 2778438, "bytes_per_op": 960, "allocs_per_op": 12},
	# (bytes_per_op and allocs_per_op are absent in older baselines and
	# carried as such).
	if (match($0, /"name": "[^"]+"/)) {
		name = substr($0, RSTART + 9, RLENGTH - 10)
		if (match($0, /"ns_per_op": [0-9.]+/)) {
			if (!(name in vals)) names[++n] = name
			vals[name] = substr($0, RSTART + 13, RLENGTH - 13) + 0
			if (match($0, /"bytes_per_op": [0-9.]+/))
				bytes[name] = substr($0, RSTART + 16, RLENGTH - 16) + 0
			if (match($0, /"allocs_per_op": [0-9.]+/))
				allocs[name] = substr($0, RSTART + 17, RLENGTH - 17) + 0
		}
	}
	next
}
/^Benchmark(Certify|BulkIngest|Ingest|Query|WhatIf)/ {
	# -benchmem lines: name iters ns/op-value "ns/op" B-value "B/op"
	# allocs-value "allocs/op".
	name = $1; sub(/-[0-9]+$/, "", name)
	if (!(name in vals)) names[++n] = name
	vals[name] = $3
	if (NF >= 6 && $6 == "B/op") bytes[name] = $5
	if (NF >= 8 && $8 == "allocs/op") allocs[name] = $7
}
END {
	printf "{\n  \"benchmarks\": [\n"
	for (i = 1; i <= n; i++) {
		printf "    {\"name\": \"%s\", \"ns_per_op\": %s", names[i], vals[names[i]]
		if (names[i] in bytes)
			printf ", \"bytes_per_op\": %s", bytes[names[i]]
		if (names[i] in allocs)
			printf ", \"allocs_per_op\": %s", allocs[names[i]]
		printf "}%s\n", (i < n ? "," : "")
	}
	printf "  ],\n  \"speedup_cold_over_incremental\": {"
	sep = ""
	for (i = 1; i <= n; i++) {
		if (names[i] ~ /Cold\//) {
			size = names[i]; sub(/.*\//, "", size)
			inc = "BenchmarkCertifyIncremental/" size
			if (inc in vals && vals[inc] + 0 > 0) {
				printf "%s\"%s\": %.2f", sep, size, vals[names[i]] / vals[inc]
				sep = ", "
			}
		}
	}
	printf "}\n}\n"
}' "$prev" - > BENCH_certify.json
rm -f "$prev"

echo "wrote BENCH_certify.json"
