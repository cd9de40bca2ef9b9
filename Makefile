# Development entry points. Everything is plain `go` underneath; the
# targets just bundle the common invocations.

GO ?= go

.PHONY: all build test test-race race cover cover-gate loc bench bench-smoke experiments fuzz fuzz-smoke chaos chaos-persist chaos-sessions fmt vet clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Alias: the race detector over the whole module (CI gate for the
# concurrency of the metrics registry and the server cache).
race: test-race

cover:
	$(GO) test -coverprofile=cover.out ./internal/... .
	$(GO) tool cover -func=cover.out | tail -1

# Coverage gate (CI): the search kernel, the multi-schema registry,
# the all-pairs closure index, and the interactive-session machinery
# (session state machine + WebSocket framing) are the subsystems whose
# regressions are silent (a wrong cached/materialized/streamed answer
# still looks like success), so their combined statement coverage must
# stay >= 80%.
COVER_GATE_MIN ?= 80.0
cover-gate:
	$(GO) test -coverprofile=cover_gate.out \
		-coverpkg=./internal/core/...,./internal/registry/...,./internal/closure/...,./internal/session,./internal/ws \
		./internal/core/... ./internal/registry/... ./internal/closure/... ./internal/server/... ./internal/session/... ./internal/ws/...
	@total=$$($(GO) tool cover -func=cover_gate.out | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	echo "combined core+registry+session coverage: $$total% (gate: $(COVER_GATE_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_GATE_MIN)" 'BEGIN { exit (t+0 >= min+0) ? 0 : 1 }' \
		|| { echo "coverage gate FAILED: $$total% < $(COVER_GATE_MIN)%"; exit 1; }

# Go line counts of the root module, non-test and test files apart.
# cmd/pathbench is its own module and is left out, as are hidden
# directories (the benchmark's build cache under .bench_build holds Go
# sources). CHANGES.md reports each change's net difference in these.
LOC_GO = find . \( -path ./cmd/pathbench -o -path './.*' \) -prune -o -name '*.go'
loc:
	@printf 'non-test Go lines: '; $(LOC_GO) ! -name '*_test.go' -print | xargs cat | wc -l
	@printf 'test Go lines:     '; $(LOC_GO) -name '*_test.go' -print | xargs cat | wc -l

# The microbenchmark ledger: `make bench` runs every tracked series and
# writes all of them to BENCH_core.json, which is the committed file.
#   - TRACKED_BENCH, from the root package: the search-kernel series,
#     the closure-vs-kernel point query, the lanes that report traverse
#     calls per query (Figure 7 at E=5, the engine presets, the
#     Algorithm 2 ablations; a kernel change that claims a lower cost
#     per call must leave their calls/query where they were), and the
#     constrained-gap lanes against their in-run unconstrained baseline;
#   - TracerOverhead, from internal/core: nil vs noop vs recording
#     tracers on the flagship query (TestWarmCompleteAllocs enforces the
#     tracing-off allocation bound);
#   - Coldstart: restoring the 1000-class closure from its checksummed
#     file vs rebuilding it by search (the restart guarantee, >=10x).
#     Its rebuild takes tens of seconds, the whole run a few minutes.
# `make bench-smoke` runs the same set at one iteration each through
# the same JSON pipeline without writing the file: enough to prove
# every lane still runs (the constrained lanes check their pinned
# completion counts, Coldstart that restore and rebuild agree cell for
# cell) and the output still parses. A failing lane fails either target.
TRACKED_BENCH = UniversityTaName|SchemaScaling|ClosureUniversityTaName|EngineComparison|Ablation|Figure7ResponseTime|Constrained
bench-run = { $(GO) test -bench='$(TRACKED_BENCH)' -benchmem -run xxx $(1) . && \
	$(GO) test -bench=TracerOverhead -benchmem -run xxx $(1) ./internal/core && \
	$(GO) test -bench=Coldstart -benchmem -run xxx -timeout 30m $(1) . ; } > bench_output.txt

bench:
	$(call bench-run,)
	$(GO) run ./cmd/benchjson < bench_output.txt > BENCH_core.json
	@echo wrote BENCH_core.json

bench-smoke:
	$(call bench-run,-benchtime=1x)
	$(GO) run ./cmd/benchjson < bench_output.txt > /dev/null

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/experiments -all

# Continuous fuzzing of the two parsers and the end-to-end completion
# round trip (Ctrl-C to stop).
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=5m ./internal/pathexpr
	$(GO) test -fuzz=FuzzParseSDL -fuzztime=5m ./internal/sdl
	$(GO) test -fuzz=FuzzCompleteRoundTrip -fuzztime=5m ./internal/core
	$(GO) test -fuzz=FuzzSessionProtocol -fuzztime=5m ./internal/session

# CI-sized fuzzing: 30s per target, enough to catch parser and search
# regressions without holding up the pipeline.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s -run FuzzParse ./internal/pathexpr
	$(GO) test -fuzz=FuzzParseSDL -fuzztime=30s -run FuzzParseSDL ./internal/sdl
	$(GO) test -fuzz=FuzzCompleteRoundTrip -fuzztime=30s -run FuzzCompleteRoundTrip ./internal/core
	$(GO) test -fuzz=FuzzSessionProtocol -fuzztime=30s -run FuzzSessionProtocol ./internal/session

# The chaos drill on its own: fault injection under the race detector
# with concurrent clients (internal/server/chaos_test.go).
chaos:
	$(GO) test -race -run TestChaos -count=1 -v ./internal/server

# The crash/restart drill over durable state: 50 kill-9/restart cycles
# sharing one data directory, with injected disk faults, torn writes,
# and post-mortem file corruption — every boot differential-checked
# against a fresh compile (internal/registry/chaos_test.go), under the
# race detector.
chaos-persist:
	$(GO) test -race -run TestChaosPersist -count=1 -v ./internal/registry

# The interactive-session drill: 2000 concurrent WebSocket keystroke
# sessions against one server while a reloader hot-swaps the schema and
# fault injection corrupts sends and searches, under the race detector.
# Passes only if every session unwinds (zero leaked sessions, admission
# slots, snapshot refs, or goroutines) and a fresh session still
# completes afterwards (internal/server/sessions_test.go).
CHAOS_SESSIONS ?= 2000
chaos-sessions:
	PATHCOMPLETE_CHAOS_SESSIONS=$(CHAOS_SESSIONS) \
		$(GO) test -race -run TestChaosSessions -count=1 -v -timeout 10m ./internal/server

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	rm -f cover.out cover_gate.out test_output.txt bench_output.txt
