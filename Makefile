# Development entry points. Everything is plain `go` underneath; the
# targets just bundle the common invocations.

GO ?= go

.PHONY: all build test test-race race cover cover-gate bench bench-json bench-closure bench-smoke bench-obs bench-trace bench-coldstart bench-coldstart-smoke bench-constrained bench-constrained-smoke experiments fuzz fuzz-smoke chaos chaos-persist chaos-sessions fmt vet clean

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

bench:
	$(GO) test -bench=. -benchmem -run xxx .

# The tracked benchmark set as machine-readable JSON, for tracking
# time/op and allocs/op across commits (see README "Performance").
# Covers the search-kernel series, the closure-vs-kernel point query —
# the lookup/search ratio is the tentpole >=10x claim — and the lanes
# that report traverse calls per query (Figure 7 at E=5, the engine
# presets, the Algorithm 2 ablations): a kernel change that claims a
# lower cost per call must leave their calls/query where they were.
TRACKED_BENCH = UniversityTaName|SchemaScaling|ClosureUniversityTaName|EngineComparison|Ablation|Figure7ResponseTime
bench-json:
	$(GO) test -bench='$(TRACKED_BENCH)' -benchmem -run xxx . \
		| $(GO) run ./cmd/benchjson > BENCH_core.json
	@echo wrote BENCH_core.json

# Alias used by the closure work: regenerate the tracked series after
# touching the all-pairs index or the kernel it mirrors.
bench-closure: bench-json

# CI-sized variant: one iteration per benchmark, just enough to prove
# the benchmarks still run and the JSON pipeline still parses.
bench-smoke:
	$(GO) test -bench='$(TRACKED_BENCH)' -benchtime=1x -benchmem -run xxx . \
		| $(GO) run ./cmd/benchjson > /dev/null

# Demonstrate that the observability layer costs ~nothing when off:
# compare nil vs noop vs recording tracers on the flagship query.
bench-obs:
	$(GO) test -bench=TracerOverhead -benchmem -count=5 -run xxx ./internal/core

# The tracing cost ledger: the tracked kernel series plus the
# tracer-overhead comparison, folded into BENCH_core.json. The
# tracing-disabled numbers here are what the span pipeline must not
# move (the <2% / zero-alloc pin; see TestWarmCompleteAllocs for the
# enforced guard).
bench-trace:
	{ $(GO) test -bench='$(TRACKED_BENCH)' -benchmem -run xxx . ; \
	  $(GO) test -bench=TracerOverhead -benchmem -run xxx ./internal/core ; } \
		| $(GO) run ./cmd/benchjson > BENCH_core.json
	@echo wrote BENCH_core.json

# The durable-state cost ledger: the tracked kernel series plus the
# coldstart comparison (restore the 1000-class closure from its
# checksummed on-disk file vs rebuild it by search), folded into
# BENCH_core.json. The disk/rebuild ratio is the restart guarantee the
# persistence tentpole sells: >=10x.
bench-coldstart:
	{ $(GO) test -bench='$(TRACKED_BENCH)' -benchmem -run xxx . ; \
	  $(GO) test -bench=TracerOverhead -benchmem -run xxx ./internal/core ; \
	  $(GO) test -bench=Coldstart -benchmem -run xxx -timeout 30m . ; } \
		| $(GO) run ./cmd/benchjson > BENCH_core.json
	@echo wrote BENCH_core.json

# CI-sized variant: one iteration per series, enough to prove restore
# and rebuild still agree cell-for-cell on the big schema.
bench-coldstart-smoke:
	$(GO) test -bench=Coldstart -benchtime=1x -benchmem -run xxx -timeout 30m . \
		| $(GO) run ./cmd/benchjson > /dev/null

# The gap-annotation cost ledger: the tracked kernel series plus the
# constrained lanes (regex-constrained gap, pushed-down predicate,
# degenerate .* constraint, and their composition — each against the
# in-run unconstrained baseline), folded into BENCH_core.json. The
# unconstrained baseline is the number the annotations must not move;
# its alloc bound is enforced by TestWarmCompleteAllocs in CI.
bench-constrained:
	$(GO) test -bench='$(TRACKED_BENCH)|Constrained' -benchmem -run xxx . \
		| $(GO) run ./cmd/benchjson > BENCH_core.json
	@echo wrote BENCH_core.json

# CI-sized variant: one iteration per lane, enough to prove the
# constrained benchmarks still run (the regex/predicate kernels still
# answer with the pinned completion counts) and the JSON still parses.
bench-constrained-smoke:
	$(GO) test -bench=Constrained -benchtime=1x -benchmem -run xxx . \
		| $(GO) run ./cmd/benchjson > /dev/null

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
