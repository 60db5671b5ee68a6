# CI and humans invoke the same targets (see .github/workflows/ci.yml).

GO ?= go

# Benchtime for `make perf`. Iteration counts (Nx) keep the artifact cheap
# and deterministic in CI; raise locally (e.g. PERF_BENCHTIME=1s) for
# publication-grade numbers.
PERF_BENCHTIME ?= 50x

# Coverage floor for `make cover` (percent). Raised to 82.5 against a
# measured 83.5% total (from 80.5, set against 82.6%); raise it as
# coverage grows, never lower it to make a PR pass.
COVER_FLOOR ?= 82.5

# Pinned linter versions for `make lint` / the CI lint job. Bump
# deliberately; a floating "latest" would let an upstream release break CI.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test benchmark-test race bench fmt vet doc perf cover lint lint-internal lint-tools fma-check corpus-replay ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark under benchmark/ is a module of its own, so `go test ./...`
# never builds it. It calls the sim and cluster APIs, so a change that
# breaks them fails here.
benchmark-test:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# Race gate: the packages with documented concurrency contracts — the real
# TCP PS runtime, the simulator, the cluster layer, the scheduling-policy
# registry, the parallel bench engine (plus the bench experiments that fan
# out across it), the single-lock singleflight cache, the HTTP service built
# on it, the fleet layer (probe loops, hedged forwarding, drain racing
# writes) and the load generator that kills a fleet node mid-load — the
# cost-model/stats value types those goroutines share, and
# the graph/trace/core layers whose artifacts are shared read-only across
# concurrent runs.
race:
	$(GO) test -race ./internal/psrt/ ./internal/sim/ ./internal/cluster/ ./internal/sched/ ./internal/timing/ ./internal/stats/ ./internal/cache/ ./internal/service/ ./internal/fleet/ ./internal/loadgen/ ./internal/bench/... ./internal/trace/ ./internal/core/ ./internal/graph/ ./internal/collective/

# Benchmark smoke: compile and run every benchmark once, no measurements.
bench:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Docs gate: godoc must render for every package (catches broken package
# comments and malformed doc syntax).
doc:
	@for p in $$($(GO) list ./...); do $(GO) doc $$p >/dev/null || exit 1; done

# Perf trajectory: run the simulator-core, cluster-protocol (quiet and
# under membership churn), cluster-build (build, digest and reference
# worker), schedule computation, schedule-cache miss through the service
# handler (BenchmarkScheduleMiss), service batch-throughput and
# cache-replay microbenchmarks and emit BENCH_sim.json
# (ns/op + allocs/op per model, plus variants/sec for /v1/batch and
# hits/req per eviction policy). CI uploads the JSON as an artifact per
# commit; the committed copy records the trajectory across PRs.
# Two steps, not a pipe: a bench compile error/panic/FAIL must fail the
# target (sh has no pipefail), not be masked into an empty JSON array.
perf:
	$(GO) test -run '^$$' -bench 'BenchmarkSimRun|BenchmarkClusterRun|BenchmarkClusterChurn|BenchmarkClusterBuild|BenchmarkComputeSchedule|BenchmarkScheduleMiss|BenchmarkBatchThroughput|BenchmarkFleetForward|BenchmarkCacheReplay' -benchmem \
		-benchtime $(PERF_BENCHTIME) ./internal/sim/ ./internal/cluster/ ./internal/service/ ./internal/trace/ > BENCH_sim.txt
	$(GO) run ./cmd/benchjson -o BENCH_sim.json < BENCH_sim.txt
	@cat BENCH_sim.json

# Coverage gate: one profile over the whole tree, an HTML report for the
# CI artifact, and a hard floor on the total — a PR that meaningfully drops
# coverage fails here, not in review.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -html=cover.out -o cover.html
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || \
		{ echo "FAIL: total coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# Lint gate: staticcheck (correctness/style analyses beyond vet) and
# govulncheck (known-vulnerability reachability). Tools are pinned; install
# them with `make lint-tools` (CI does).
lint:
	staticcheck ./...
	govulncheck ./...

# Internal lint gate: the repo's own analyzers (determinism, hot-path
# allocation, lock discipline, error codes, registry hygiene — see
# docs/static-analysis.md), run through go vet so package loading and
# result caching come from the toolchain. `make lint-internal JSON=1`
# additionally writes machine-readable diagnostics to tictaclint.json
# (CI uploads it as an artifact).
lint-internal:
	$(GO) build -o bin/tictaclint ./cmd/tictaclint
ifdef JSON
	$(GO) vet -vettool=bin/tictaclint -json ./... 2> tictaclint.json || true
endif
	$(GO) vet -vettool=bin/tictaclint ./...

# FMA gate: response bytes must not depend on the CPU. On arm64 (and
# other targets with fused multiply-add) the compiler may fuse x*y + z into
# one instruction that rounds once, where amd64 rounds the product and the
# sum separately; an explicit float64(x*y) conversion forbids the fusion
# (Go spec, "Floating-point operators"). Cross-compile tictacd for
# linux/arm64 and fail on any fused instruction in the packages whose
# arithmetic reaches a response.
fma-check:
	GOOS=linux GOARCH=arm64 $(GO) build -o bin/tictacd-arm64 ./cmd/tictacd
	$(GO) tool objdump -s '^tictac/internal/(sim|cluster|core|sched|cache|timing|service)\.' bin/tictacd-arm64 > bin/tictacd-arm64.asm
	@if grep -E '\b(FMADD|FMSUB|FNMADD|FNMSUB)' bin/tictacd-arm64.asm; then \
		echo "FAIL: fused multiply-add in the daemon's arm64 build (wrap the product in float64(...))"; exit 1; fi

# Corpus replay through a built daemon: TestResponseCorpus pins every
# response byte in process; this sends the corpus's non-fleet requests,
# byte for byte and in file order, over HTTP to a tictacd started with the
# corpus services' -max-batch 16, and compares each status and SHA-256
# with the committed responses.json.
corpus-replay:
	$(GO) build -o bin/tictacd ./cmd/tictacd
	$(GO) run internal/service/testdata/corpus/replay.go bin/tictacd internal/service/testdata/corpus

lint-tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

ci: fmt vet doc build test benchmark-test lint-internal fma-check bench
