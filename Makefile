# latencyhide — build / test / reproduce targets

GO ?= go

COVER_MIN ?= 80

.PHONY: all build test race bench bench-huge-smoke bench-all ci check-binaries cover verify chaos twin-gate fleet experiments examples clean

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

# Engine micro-benchmarks (plus the telemetry-on and fault-plan-on runs that
# price against EngineSequential), no comparison. The engine's exact work,
# Result.Work, is pinned on both engines with no exclusions by
# TestGoldenCounters (internal/sim/testdata/golden_counters.txt, the
# long-link cut config included); end-to-end timing is perfbench/'s job
# (BENCHMARK.json).
bench:
	$(GO) test -run '^$$' -bench 'Engine|Telemetry|FaultQuery' -benchtime 3x -count 1 .

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
