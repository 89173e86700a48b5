#!/bin/sh
# CI gate: the full `make check` chain (gofmt, go vet, ppdblint, build,
# tests), the fault-injection/crash-matrix suite, the WAL durability suite,
# short fuzz passes over the enforced query path, the policy DSL round
# trip, the snapshot row decoder, the certification report writer, the
# audit trail's block store, the what-if request body and the WAL segment
# decoder, a
# build-and-test of the benchmark harness (perfbench/ is its own module,
# so `go build ./...` never compiles it), and a race pass over the
# concurrency-bearing packages — the PPDB prototype (whose row tables
# d.mu guards), the relational values, schemas and parser every request
# goroutine shares, the ledger, the write-ahead log (group commit runs a
# background flusher against concurrent appenders), the fault registry
# (global armed-site state hit from request goroutines), the hardened HTTP
# layer (in-flight semaphore, readiness flag), the enforced query engine
# (read-side snapshots raced against store mutation) and the metrics
# registry every one of them publishes to.
set -eu

cd "$(dirname "$0")/.."

make check
make faults
make faults-wal
FUZZTIME=10s make fuzz
(cd perfbench && go vet ./... && go test ./...)

# The race package list is derived from `go list`, not hand-maintained:
# a rename or deletion of any gated package fails here loudly instead of
# silently shrinking the race surface. Both the match regex and the
# expected count derive from the one name list below, so adding a package
# is a one-word change.
race_names='ledger ppdb relational fault httpapi metrics wal query whatif'
race_re="internal/($(echo "$race_names" | tr ' ' '|'))\$"
want=$(echo "$race_names" | wc -w | tr -d ' ')
race_pkgs=$(go list ./... | grep -E "$race_re" || true)
count=$(printf '%s' "$race_pkgs" | grep -c . || true)
if [ "$count" -ne "$want" ]; then
	echo "ci.sh: race list matched $count packages, want $want — a gated package moved or vanished:" >&2
	printf '%s\n' "$race_pkgs" >&2
	exit 1
fi
# shellcheck disable=SC2086 # the list is newline-separated package paths
go test -race $race_pkgs

# Fan-out race pass: the width-sweep suite runs every population fan-out
# (bulk ingest, rebuild, what-if, CertifyFull, snapshot render) at
# GOMAXPROCS 1/2/8 — the "shards" its tests are named after — the ledger
# tests drive the batch and rebuild fan-outs, the enforced-query test races
# concurrent QueryEnforced against registration, inserts and policy swaps,
# the update/remove stress test races self-service edits against
# removals, and the report-writer tests drive the certification's
# render-ahead workers through whole bodies, block boundaries, encoding
# errors and hang-ups. GOMAXPROCS=4 gives the race detector real
# interleavings even on single-core runners. The pass names its tests and
# checks that every one still exists, so a rename fails here instead of
# leaving a pattern that matches nothing and passes.
fanout_tests='TestShardCountCertifyEquivalence TestShardSnapshotByteCompat TestShardSnapshotRoundTrip TestColumnarKernelMatchesReferenceAcrossShards TestShardedEnforcedQueryUnderMutation TestLedgerCertifyEquivalence TestUpdatePreferencesNeverResurrects TestConcurrentLedger TestUpsertBatchMatchesSequential TestRebuildSwapsPolicy TestReportRoutesMatchEncodingJSON TestReportWriterStopsOnHangUp TestCertificationParallelMatchesEncodingJSON'
fanout_pkgs='./internal/ppdb ./internal/ledger ./internal/httpapi'
fanout_re="^($(echo "$fanout_tests" | tr ' ' '|'))\$"
want=$(echo "$fanout_tests" | wc -w | tr -d ' ')
# shellcheck disable=SC2086 # the package list is space-separated
listed=$(go test -list "$fanout_re" $fanout_pkgs | grep -c '^Test' || true)
if [ "$listed" -ne "$want" ]; then
	echo "ci.sh: fan-out race pass lists $listed of its $want tests — one was renamed or deleted:" >&2
	# shellcheck disable=SC2086
	go test -list "$fanout_re" $fanout_pkgs >&2
	exit 1
fi
# shellcheck disable=SC2086
GOMAXPROCS=4 go test -race -run "$fanout_re" $fanout_pkgs
