#!/bin/sh
# Benchmark regression gate: re-runs the certification benches and compares
# ns/op against the recorded baseline in BENCH_certify.json. Any benchmark
# slower than baseline by more than BENCH_TOLERANCE percent (default 25)
# fails the gate, as does a baseline benchmark that no longer runs. A delta
# table is always printed. Wired as `make benchgate`; CI runs it as a
# non-blocking job because shared runners have noisy clocks.
#
# BENCHTIME overrides -benchtime (e.g. BENCHTIME=10x for a quick run).
# After an intentional performance change, re-record with `make bench`.
set -eu

cd "$(dirname "$0")/.."

baseline=BENCH_certify.json
if [ ! -f "$baseline" ]; then
	echo "benchgate: $baseline missing — record a baseline with 'make bench'" >&2
	exit 1
fi

# The pattern names every gated bench explicitly, including the bulk
# ingest (BulkIngest, 100k providers), the durable-ingest benches
# (IngestDurable runs one sub-bench per WAL group-commit mode), the
# enforced-query benches (QueryEnforced
# runs clean and violating populations at 10k/100k rows), the what-if
# benches (WhatIfStorm and WhatIfShipped, narrow and full diffs), the
# HTTP certify benches (CertifyHTTP, GET /v1/certify through the handler
# at 1k/100k providers and on perfbench's shape, shipped-20k),
# the per-provider compile bench (Compile), the policy-swap bench
# (SetPolicy) and the WAL recovery bench (WALReplay, perfbench's 20k
# providers replayed from batch records); each sub-bench is compared
# against its own baseline entry.
out=$(go test -run '^$' -bench '^Benchmark(Certify(Cold|Incremental|Summary|HTTP)|BulkIngest|IngestDurable|QueryEnforced|WhatIf(Storm|Shipped)|Compile|SetPolicy|WALReplay)' \
	-benchtime "${BENCHTIME:-1s}" -timeout 30m .)
printf '%s\n' "$out"
echo

printf '%s\n' "$out" | awk -v tol="${BENCH_TOLERANCE:-25}" '
NR == FNR {
	# Baseline lines look like
	# {"name": "BenchmarkCertifyCold/1k", "ns_per_op": 2778438, "allocs_per_op": 12},
	# — only ns_per_op is gated; allocs_per_op is recorded for inspection.
	if (match($0, /"name": "[^"]+"/)) {
		name = substr($0, RSTART + 9, RLENGTH - 10)
		if (match($0, /"ns_per_op": [0-9.]+/))
			base[name] = substr($0, RSTART + 13, RLENGTH - 13) + 0
	}
	next
}
/^Benchmark(Certify|BulkIngest|Ingest|Query|WhatIf|Compile|SetPolicy|WALReplay)/ {
	name = $1; sub(/-[0-9]+$/, "", name)
	cur[name] = $3 + 0
	seen[++n] = name
}
END {
	fail = 0
	printf "%-36s %16s %16s %9s\n", "benchmark", "baseline ns/op", "current ns/op", "delta"
	for (i = 1; i <= n; i++) {
		name = seen[i]
		if (!(name in base)) {
			printf "%-36s %16s %16.1f %9s\n", name, "(new)", cur[name], "-"
			continue
		}
		d = (cur[name] - base[name]) / base[name] * 100
		flag = (d > tol) ? "  REGRESSION" : ""
		if (d > tol) fail = 1
		printf "%-36s %16.1f %16.1f %+8.1f%%%s\n", name, base[name], cur[name], d, flag
		delete base[name]
	}
	for (name in base) {
		printf "%-36s %16.1f %16s %9s  VANISHED\n", name, base[name], "-", "-"
		fail = 1
	}
	if (fail) {
		printf "benchgate: FAIL (tolerance %s%%)\n", tol
		exit 1
	}
	printf "benchgate: OK (tolerance %s%%)\n", tol
}' "$baseline" -
