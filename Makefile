GO ?= go

.PHONY: build check lint test test-sqdebug test-sqchaos test-cluster fuzz bench bench-real bench-synthetic clean

build:
	$(GO) build ./...

# Pre-commit gate: gofmt + vet + build + sqlint + race-short tests + the
# non-short harness smoke tests.
check:
	sh scripts/check.sh

# The project-specific static analyzer (chansend: channel discipline on the
# serving paths); copied locks are go vet's, mixed access is -race's.
lint:
	$(GO) run ./cmd/sqlint ./...

# Full suite (tier-1; about two minutes on 2 cores, most of it the harness
# smoke tests of internal/bench).
test:
	$(GO) test ./...

# Short suite with the sqdebug runtime invariant assertions compiled in
# (CSR shape, candidate-set mirrors, embedding validity, trie postings).
test-sqdebug:
	$(GO) test -tags sqdebug -short ./...

# Chaos suite with the sqchaos fault-injection substrate compiled in:
# panics, latency, allocation spikes and spurious aborts fired into the
# filter/order/enumerate/index-probe hot paths, with the engines and the
# server asserted to survive every fault (structured errors, no crash, no
# goroutine or scratch-arena leak). Runs under the race detector — worker
# pools unwinding through injected panics is exactly where races hide.
test-sqchaos:
	$(GO) test -tags sqchaos -race ./internal/core ./cmd/sqserver

# Scatter-gather tier suite: the cluster package's unit tests plus the
# chaos storms — per-shard drop injection at the transport boundary, and
# the server-level shard-kill storm (one of four shards killed and
# revived mid-500-query-storm; every response well-formed, lost
# partitions named, hedged losers cancelled, registry drained). Race
# detector on: the coordinator's fan-out/hedge/cancel paths are where
# races hide.
test-cluster:
	$(GO) test -race -count=1 ./internal/cluster
	$(GO) test -tags sqchaos -race -count=1 -run 'TestCluster' ./internal/cluster
	$(GO) test -tags sqchaos -race -count=1 -run 'TestChaosClusterShardKillStorm' ./cmd/sqserver

# Ten-second fuzz smoke over the graph text-format reader, seeded from
# internal/graph/testdata/fuzz.
fuzz:
	$(GO) test -fuzz=FuzzReadDatabase -fuzztime=10s -run '^$$' ./internal/graph

# Default bench run: small-scale real + synthetic studies, landing the
# machine-readable reports (BENCH_<dataset>.json, BENCH_synthetic.json,
# schema subgraphquery/bench/v1) at the repo root so the perf trajectory
# is tracked in-tree.
bench: bench-real bench-synthetic

bench-real:
	$(GO) run ./cmd/sqbench real -scale 0.005 -queries 3 \
		-index-budget 30s -query-budget 2s -json-dir .

bench-synthetic:
	$(GO) run ./cmd/sqbench synthetic -scale 0.005 -queries 3 \
		-index-budget 30s -query-budget 2s -json-dir .

clean:
	rm -rf .bench_build
