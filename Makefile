GO ?= go

.PHONY: verify fmt vet staticcheck build test race cover fuzz loc examples bench-fanout bench-resilience bench-replication bench-session bench-route bench-overload bench-world bench-boot bench-watch bench-smoke

## verify: the full CI gate — formatting, vet, build, tests under -race
## (twice, so flaky tests surface). CI additionally runs staticcheck.
verify: fmt vet build race

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

## staticcheck: runs if the binary is installed (CI installs it; locally
## `go install honnef.co/go/tools/cmd/staticcheck@2024.1.1`).
staticcheck:
	@if command -v staticcheck >/dev/null; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping"; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=2 ./...

## cover: coverage profile + total, as CI reports it.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

## fuzz: a short pass over each fuzz target, 10s apiece (their seed
## corpora already run inside `go test ./...`). Minimizing a new input is
## capped at 1s so the budget goes to exploring. The corpus the pass grows
## goes to the Go build cache, not the repo.
fuzz:
	$(GO) test ./internal/mapserver -run '^$$' -fuzz '^FuzzServiceDecode$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/osm -run '^$$' -fuzz '^FuzzReadSnapshotIndexed$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/osm -run '^$$' -fuzz '^FuzzReadOSMXML$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/dns -run '^$$' -fuzz '^FuzzUnpack$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/dns -run '^$$' -fuzz '^FuzzZoneLookup$$' -fuzztime 10s -fuzzminimizetime 1s

## loc: non-test and test Go line counts outside bench/ — the trajectory
## the design diet (ROADMAP aim 2) is measured on.
loc:
	@echo "non-test: $$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"
	@echo "test:     $$(find . -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"

## examples: run both narrative examples end to end (each stands up a
## whole federation in-process and exits non-zero if a step fails).
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/grocery

## bench-fanout: the E13 sequential-vs-concurrent fan-out comparison.
bench-fanout:
	$(GO) test -run xxx -bench E13 -benchtime 10x .

## bench-resilience: the E14 faulty-federation comparison (hedged vs not).
bench-resilience:
	$(GO) test -run xxx -bench E14 -benchtime 200x .

## bench-replication: the E16 replica-aware fan-out comparison (one
## request per replica set vs query-everyone).
bench-replication:
	$(GO) test -run xxx -bench E16 -benchtime 200x .

## bench-session: the E17 staleness comparison — reads under injected
## replica lag with forced failover, with session-consistency marks vs
## without (stalereads/op must be 0 with sessions, 1 without).
bench-session:
	$(GO) test -run xxx -bench E17 -benchtime 20x .

## bench-route: the E18 routing raw-speed comparison — CH vs bidirectional
## Dijkstra point-to-point, bucket-based many-to-many vs the per-pair
## loop. Writes the machine-readable BENCH_route.json artifact and fails
## if the speedup floors (p2p ≥5×, matrix ≥10×) are not met.
bench-route:
	BENCH_ROUTE_JSON=BENCH_route.json $(GO) test -run TestE18BenchArtifact -count=1 -v .

## bench-overload: the E19 overload-discipline experiment — open-loop load
## at 2.5x measured capacity against identical servers with admission
## control on vs off. Writes BENCH_overload.json and fails if shedding-on
## goodput drops below the shedding-off baseline or the accepted-request
## p99 exceeds the client timeout.
bench-overload:
	BENCH_OVERLOAD_JSON=BENCH_overload.json $(GO) test -run TestE19BenchArtifact -count=1 -v .

## bench-world: the E20 memory-lean world experiment — columnar node
## storage vs the pointer-per-node layout, snapshot v2 load (streamed and
## mmapped), and serving latencies, all on a city-scale world (~1.05M
## nodes; override with BENCH_WORLD_BLOCKS for a quicker run). Writes
## BENCH_world.json and fails if the floors slip: bytes/node ≥4× leaner,
## serving parity byte-exact.
bench-world:
	BENCH_WORLD_JSON=BENCH_world.json $(GO) test -run TestE20BenchArtifact -count=1 -timeout 30m -v .

## bench-boot: the E21 boot-to-serving experiment — attaching the
## persisted snapshot index (mmap + store.NewWithIndex) vs rebuilding
## every serving index from the node columns, plus time-to-first-200
## through a real HTTP listener, on the E20 city-scale world (override
## with BENCH_BOOT_BLOCKS for a quicker run). Writes BENCH_boot.json and
## fails if the floors slip: index attach ≥20× faster than the rebuild,
## attach boot strictly faster to the first 200, serving results
## byte-identical between the attached and rebuilt stores.
bench-boot:
	BENCH_BOOT_JSON=BENCH_boot.json $(GO) test -run TestE21BenchArtifact -count=1 -timeout 30m -v .

## bench-watch: the E22 streaming-read-path experiment — N polling clients
## vs N push watchers on a churning region. Writes BENCH_watch.json and
## fails if the floors slip: watch side ≥10× fewer HTTP requests than the
## poll side, pushed-delta freshness p95 under the poll interval, every
## watcher converged on the final write, and hub evaluations scaling with
## churn rather than with the watcher population (coalescing).
bench-watch:
	BENCH_WATCH_JSON=BENCH_watch.json $(GO) test -run TestE22BenchArtifact -count=1 -v .

## bench-smoke: compile and run EVERY benchmark for one iteration, so the
## growing suite (E1–E22 plus per-package micro-benchmarks) can never rot
## uncompiled. Numbers are meaningless at 1x; only pass/fail matters.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...
