# Verification loop for the reproduction (see DESIGN.md §6 and §7).
# `make check` is the single gate CI runs (scripts/ci.sh wraps it and adds
# the targeted race pass).

.PHONY: all build vet lint lint-baseline check ci test race faults faults-wal fuzz bench bench-all benchgate profile experiments cover

all: build vet test

check:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	go vet ./...
	go run ./cmd/ppdblint -baseline lint-baseline.json ./...
	go build ./...
	go test ./...

# lint runs just the repo-specific static-analysis suite (a subset of
# check). Findings recorded in lint-baseline.json are grandfathered; only
# new findings fail the run.
lint:
	go run ./cmd/ppdblint -baseline lint-baseline.json ./...

# lint-baseline re-records the baseline after deliberately accepting a
# finding (prefer fixing or a reasoned //lint:ignore; see DESIGN.md §12).
lint-baseline:
	go run ./cmd/ppdblint -write-baseline lint-baseline.json ./...

ci:
	./scripts/ci.sh

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# faults runs the crash-matrix and fault-injection tests (DESIGN.md §9):
# every persist injection site crashed in turn, handler panic recovery,
# load shedding, graceful drain. A focused subset of `make test` for the
# durability edit loop; scripts/ci.sh runs it as its own gate.
faults:
	go test -run 'Crash|Fault|Panic|Injected|Shed|Drain|Snapshot|Corrupted|Generation|Health' \
		./internal/fault/... ./internal/ppdb/... ./internal/httpapi/... ./cmd/ppdbserver/... .

# faults-wal runs the write-ahead-log durability suite (DESIGN.md §14): the
# WAL crash matrix (every wal.* fault site killed and recovered at
# GOMAXPROCS 1/2/8 against a no-WAL oracle), torn-tail and corrupted-record recovery,
# checkpoint/truncate crashes, replay crashes, and the wal package's own
# frame/rotation/group-commit tests. Blocking in scripts/ci.sh.
faults-wal:
	go test -run 'WAL|Wal|Torn|Replay|Segment|GroupCommit' \
		./internal/wal/... ./internal/ppdb/... ./cmd/ppdbserver/...

# fuzz runs each fuzz target for FUZZTIME (default 30s): internal/query's
# FuzzQuery (arbitrary SQL through Engine.Query must never panic and every
# answer must keep rows returned <= matched <= scanned),
# internal/policydsl's FuzzPolicyDSL (parse -> render -> parse must succeed,
# render identically and keep every policy and provider name byte for
# byte), internal/ppdb's FuzzSnapshotRows (arbitrary bytes as one
# table's snapshot row and provenance artifacts must never panic the
# loader, and whatever it accepts must save back byte for byte) and
# internal/httpapi's FuzzReportJSON (certifications and provider reports
# built from arbitrary bytes must come out of the /v1/certify and
# /v1/self/audit writer exactly as encoding/json's indented encoder
# writes them, and fail where it fails) and internal/ppdb's FuzzAuditTrail
# (arbitrary access records, including invalid UTF-8, statements spanning
# the trail's storage blocks and clock advances, must read back exactly,
# and every page must equal filtering and slicing the full trail) and
# internal/httpapi's FuzzWhatIfRequest (arbitrary POST /v1/whatif bodies
# through ServeHTTP must never answer 500, a 200 must cover the whole
# population and anything else must carry the error envelope).
# Crashers land in the package's
# testdata/fuzz/<target>; commit them as seeds once fixed — `make test`
# replays every seed there.
fuzz:
	go test -run '^$$' -fuzz '^FuzzQuery$$' -fuzztime "$${FUZZTIME:-30s}" ./internal/query
	go test -run '^$$' -fuzz '^FuzzPolicyDSL$$' -fuzztime "$${FUZZTIME:-30s}" ./internal/policydsl
	go test -run '^$$' -fuzz '^FuzzSnapshotRows$$' -fuzztime "$${FUZZTIME:-30s}" ./internal/ppdb
	go test -run '^$$' -fuzz '^FuzzReportJSON$$' -fuzztime "$${FUZZTIME:-30s}" ./internal/httpapi
	go test -run '^$$' -fuzz '^FuzzAuditTrail$$' -fuzztime "$${FUZZTIME:-30s}" ./internal/ppdb
	go test -run '^$$' -fuzz '^FuzzWhatIfRequest$$' -fuzztime "$${FUZZTIME:-30s}" ./internal/httpapi

# bench runs the certification benches and records BENCH_certify.json
# (cold vs incremental ledger certification, bulk ingest, and the
# enforced-query benches at clean/violating populations). Not part of
# `make check`. To compare against another revision in alternating runs,
# use scripts/benchcmp.sh BASE [PATTERN].
bench:
	./scripts/bench.sh

# bench-all runs every benchmark in the repo.
bench-all:
	go test -bench=. -benchmem ./...

# benchgate re-runs the certification benches and fails if any regressed
# past BENCH_TOLERANCE percent (default 25) of the recorded baseline.
# After an intentional perf change, re-record the baseline with `make bench`.
benchgate:
	./scripts/benchgate.sh

# profile captures CPU and heap profiles of the cold 100k certification
# (the columnar kernel's hot path, DESIGN.md §13) into profiles/, which is
# gitignored. Inspect with `go tool pprof profiles/certify_cpu.out`.
profile:
	mkdir -p profiles
	go test -run '^$$' -bench '^BenchmarkCertifyCold/100k' -benchmem \
		-cpuprofile profiles/certify_cpu.out \
		-memprofile profiles/certify_mem.out \
		-o profiles/certify.test \
		-benchtime "$${BENCHTIME:-1s}" -timeout 30m .
	@echo "profiles written to profiles/ — inspect with: go tool pprof profiles/certify_cpu.out"

experiments:
	go run ./cmd/experiments -run all

# cover enforces a minimum statement coverage on the paper-core packages
# (internal/core, internal/ledger, internal/ppdb, internal/query) and
# leaves coverage.out
# behind for artifact upload. COVER_THRESHOLD overrides the default 70.
cover:
	./scripts/cover.sh
