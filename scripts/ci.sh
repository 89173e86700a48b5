#!/bin/sh
# CI gate: the full `make check` chain (gofmt, go vet, ppdblint, build,
# tests), the fault-injection/crash-matrix suite, the WAL durability suite,
# short fuzz passes over the enforced query path, the policy DSL round
# trip, the snapshot row decoder and the certification report writer, a
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

# Shard-sweep race pass: the shard-count equivalence suite exercises every
# cross-shard fan-out/merge path (bulk ingest, rebuild, snapshot render) at
# 1/2/8 shards, and the sharded enforced-query test races concurrent
# QueryEnforced snapshots against registration, inserts and policy swaps.
# GOMAXPROCS=4 gives the race detector real interleavings of the per-shard
# goroutines even on single-core runners.
GOMAXPROCS=4 go test -race -run 'Shard|LedgerCertifyEquivalence' ./internal/ppdb ./internal/ledger
