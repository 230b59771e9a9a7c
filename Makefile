# latencyhide — build / test / reproduce targets

GO ?= go
BENCH_BASELINE ?= BENCH_1.json
BENCH_PATTERN  ?= Engine|Telemetry|FaultQuery
BENCH_TIME     ?= 3x

COVER_MIN ?= 80

.PHONY: all build test race bench bench-baseline bench-diff bench-telemetry-gate bench-parallel-gate bench-fault-gate bench-mem-gate bench-huge-smoke bench-all ci check-binaries cover verify chaos twin-gate fleet experiments examples clean

all: build test

# Everything the CI workflow runs (see .github/workflows/ci.yml).
# staticcheck runs when installed (CI installs it; locally it is optional).
ci: check-binaries
	$(GO) build ./...
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	$(GO) test -race -shuffle=on ./...

# Fail if any tracked file is a compiled binary (ELF or Mach-O magic) or a
# test/benchmark artifact by name (bench.out, cover.out, *.test, fleet
# stores): build outputs belong in .gitignore, never in the repository.
check-binaries:
	@bad=""; for f in $$(git ls-files); do \
		[ -f "$$f" ] || continue; \
		case "$$(basename "$$f")" in \
			bench.out|cover.out|*.test|fleet-shard*.jsonl) bad="$$bad $$f"; continue;; \
		esac; \
		magic=$$(head -c 4 "$$f" | od -An -tx1 | tr -d ' \n'); \
		case "$$magic" in \
			7f454c46|feedface|feedfacf|cefaedfe|cffaedfe) bad="$$bad $$f";; \
		esac; \
	done; \
	if [ -n "$$bad" ]; then echo "tracked binaries or build artifacts:$$bad"; exit 1; fi; \
	echo "check-binaries: no tracked binaries"

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test -shuffle=on ./...

# Coverage gate: the statement coverage of the whole module must not fall
# below COVER_MIN percent (the seed baseline; currently measured 83.9).
cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub("%","",$$3); print $$3 }'); \
	echo "total coverage: $$total% (gate $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 < min+0) ? 1 : 0 }'

# Model-based verification soak (see DESIGN.md "Verification").
verify:
	$(GO) run -race ./cmd/latencysim verify -seed 1 -n 200

# Adversarial-regime soak: every scenario carries a spike/drift/churn plan
# and every other one runs the adaptive controller (see DESIGN.md §10).
chaos:
	$(GO) run -race ./cmd/latencysim verify -chaos -seed 1 -n 200

# Analytical-twin gate: measure a fresh scenario fleet and require every
# theorem family's MAPE under its frozen ceiling with zero certified-floor
# violations (see DESIGN.md §11). Nonzero exit on any breach.
twin-gate:
	$(GO) run ./cmd/latencysim twin -report -seed 1 -n 500

# Sharded fleet sweep into resumable JSONL stores (kill and re-run freely;
# finished scenarios are never recomputed). Join with:
#   go run ./cmd/latencysim twin -report -store 'fleet-shard*.jsonl'
FLEET_N      ?= 2000
FLEET_SHARDS ?= 4
fleet:
	@for s in $$(seq 0 $$(( $(FLEET_SHARDS) - 1 ))); do \
		$(GO) run ./cmd/latencysim sweep -fleet $(FLEET_N) -shards $(FLEET_SHARDS) -shard $$s & \
	done; wait
	$(GO) run ./cmd/latencysim twin -report -store 'fleet-shard*.jsonl'

race:
	$(GO) test -race ./internal/sim ./internal/overlap ./internal/mesharray

# Engine benchmark regression harness: run the engine micro-benchmarks and
# compare pebbles/sec against the committed baseline ($(BENCH_BASELINE)),
# failing on >10% regressions. With no baseline present, record one instead.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime $(BENCH_TIME) -count 1 . | tee bench.out
	@if [ -f $(BENCH_BASELINE) ]; then \
		$(GO) run ./cmd/benchcmp -baseline $(BENCH_BASELINE) bench.out; \
	else \
		$(GO) run ./cmd/benchcmp -write $(BENCH_BASELINE) bench.out; \
	fi

# Re-record the baseline (after an intentional perf change).
bench-baseline:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime $(BENCH_TIME) -count 1 . | tee bench.out
	$(GO) run ./cmd/benchcmp -write $(BENCH_BASELINE) bench.out

# Diff the newest two committed BENCH_*.json records, failing on a >15%
# sequential-engine regression (parallel lines are reported but ungated).
bench-diff:
	$(GO) run ./cmd/benchcmp -diff-latest .

# Tight telemetry-disabled gate: the sequential engine with a nil registry
# must stay within 2% of the previous committed baseline (deterministic —
# both records are committed files, no benchmarks run here).
bench-telemetry-gate:
	$(GO) run ./cmd/benchcmp -diff-latest . -threshold 0.02 -only EngineSequential

# Same deterministic 2% gate for the 4-worker parallel engine (-gate-all
# because parallel benchmarks sit outside the default sequential-only gate).
bench-parallel-gate:
	$(GO) run ./cmd/benchcmp -diff-latest . -threshold 0.02 -only EngineParallel4 -gate-all

# Deterministic 2% faults-disabled gate, mirroring bench-telemetry-gate:
# the engine with Config.Faults nil must pay nothing for the regime
# machinery (one pointer check per run, no per-injection queries). The gate
# arms itself: until a committed baseline records FaultQueryOff it reports
# and passes (diffing records that predate the benchmark would always be
# vacuous); once one does, absence or regression fails the build.
bench-fault-gate:
	@latest=$$(ls BENCH_*.json | sort -t_ -k2 -n | tail -1); \
	if grep -q FaultQueryOff "$$latest"; then \
		$(GO) run ./cmd/benchcmp -diff-latest . -threshold 0.02 -only FaultQueryOff -gate-all; \
	else \
		echo "bench-fault-gate: $$latest predates BenchmarkFaultQueryOff; gate arms with the next bench-baseline"; \
	fi

# Deterministic memory gate: bytes/pebble on the engine benchmarks must not
# grow more than 10% PR-over-PR. Unlike wall time, allocation per pebble is
# nearly machine-independent, so the memory gate covers every compared
# engine benchmark (both records are committed files, no benchmarks run
# here). The 100% time threshold neutralizes the wall-clock gate so this
# target fails on memory only.
bench-mem-gate:
	$(GO) run ./cmd/benchcmp -diff-latest . -threshold 1.0 -mem-threshold 0.10 -only Engine

# Reduced-scale EngineHuge smoke: the 10M-pebble tier's code path and its
# declared RSS budget, scaled down to a line CI can run in seconds. The
# pebble floor is waived at reduced scale but the RSS gate still applies —
# a catastrophic working-set blowup shows at any size.
HUGE_SMOKE_HOSTS ?= 1024
bench-huge-smoke:
	LATENCYHIDE_HUGE_HOSTS=$(HUGE_SMOKE_HOSTS) $(GO) test -run '^$$' -bench BenchmarkEngineHuge -benchtime 1x -count 1 .

# The full benchmark suite (every experiment bench), no comparison.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the full paper reproduction record (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/latencysim exp -scale full -md -o EXPERIMENTS-data.md
	$(GO) run ./cmd/latencysim exp -scale full -csvdir experiments-csv

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/heatring
	$(GO) run ./examples/kvreplay
	$(GO) run ./examples/mesh2d
	$(GO) run ./examples/butterfly
	$(GO) run ./examples/sortarray

clean:
	rm -rf experiments-csv bench.out cover.out fleet-shard*.jsonl
