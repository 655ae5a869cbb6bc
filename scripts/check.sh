#!/bin/sh
# check.sh — pre-commit gate: formatting, vet, build, the project-specific
# static analyzer (cmd/sqlint), the race-enabled short test suite over
# every package, and the harness smoke tests -short skips, so that what
# passes here passes tier-1 (`go build ./... && go test ./...`); the sqdebug
# invariant tests run via `make test-sqdebug`.
#
# Which step checks what: `go vet ./...` is the by-value copy gate (a
# sync.Mutex, WaitGroup or typed atomic copied through a receiver,
# parameter, assignment or return); `go test -race` is the mixed-access gate
# (a field read plainly in one goroutine and atomically or under a lock in
# another, unguarded map writes); the AllocsPerRun tests are the hot-loop
# allocation gate; sqlint checks channel discipline on the serving paths.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l . 2>/dev/null)
if [ -n "$unformatted" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./... (and ./benchmark by name: the frozen surface must keep compiling against the tree)"
go vet ./...
go vet ./benchmark

echo "== go build ./..."
go build ./...

echo "== go run ./cmd/sqlint ./..."
go run ./cmd/sqlint ./...

echo "== go test -race -short ./..."
go test -race -short ./...

echo "== start-up pools under race, not short (the parallel reader, the pooled trie build)"
go test -race -count=1 ./internal/graph ./internal/index

echo "== harness smoke tests (internal/bench non-short: every table and figure at miniature scale, deterministic budgets)"
go test -count=1 ./internal/bench

echo "== telemetry storm (tail-sampler retention under chaos, race)"
go test -race -count=1 -run 'Storm' ./internal/telemetry
go test -tags sqchaos -race -count=1 -run 'TestChaosTelemetryRetainsAnomalies' ./cmd/sqserver

echo "== live-inspection storm + stuck-query watchdog (inflight registry, race)"
go test -race -count=1 -run 'Watchdog' ./internal/inflight ./cmd/sqserver
go test -tags sqchaos -race -count=1 -run 'TestInflightStormUnderChaos' ./cmd/sqserver

echo "== scatter-gather tier: shard-kill chaos storm (race)"
make test-cluster

echo "== result-cache bench smoke (one Zipf block through bare and cached CFQL)"
go test -run '^$' -bench 'CachedZipf' -benchtime 1x .

echo "== budgeted-query bench smoke (bare CFQL with and without a Deadline, equal answers)"
go test -run '^$' -bench 'BudgetedQuery' -benchtime 1x .

echo "== small-graph kernel bench smoke (filter and search, word path vs the same graphs padded onto the list path)"
go test -run '^$' -bench 'SmallGraphKernels' -benchtime 1x ./internal/matching

echo "== path-trie and reader bench smoke (GGSX build on 1 and 2 workers, probe and append on 4 000 AIDS graphs; parsing them, allocs/graph)"
go test -run '^$' -bench 'GGSXBuildAIDS/workers=(1|2)' -benchtime 1x -cpu 2 ./internal/index
go test -run '^$' -bench 'GGSX(Probe|Insert)AIDS' -benchtime 1x ./internal/index
go test -run '^$' -bench 'ReadDatabase' -benchtime 1x -cpu 2 ./internal/graph

echo "== serve bench smoke (whole handler chain in process: bare, default and default+cache flags, B/op and allocs/op)"
go test -run '^$' -bench 'Serve' -benchtime 1x ./cmd/sqserver

echo "== served-path benchmark smoke (real sqserver, traced replay with its self-checks)"
# -short above skips it; a change that breaks replay/engine parity should
# fail here, not in the benchmark gate.
go test -count=1 -run TestSmoke ./benchmark

echo "== the benchmark gate's own form on the index workload (traced: non-zero on a wrong answer, a dead server or a failed self-check)"
go run ./benchmark -workload aids-index-append -trace 1 -seconds 2

echo "ok"
