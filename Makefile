# Developer entry points. CI (.github/workflows/ci.yml) runs these targets
# across parallel jobs; `make ci` replicates the gating set locally.

GO ?= go
FUZZTIME ?= 30s

.PHONY: build vet test race lint cover bench-smoke bench bench-core bench-delta scale-ceiling bench-scale serve-bench fuzz-smoke chaos ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Static analysis: go vet, the repo's own audit-discipline vet pass
# (plavet: PV001/PV002), plalint over every shipped PLA document and the
# full healthcare deployment (error severity gates the build; the
# scenario's intentionally blocked report stays a warning), and pladiff:
# translation validation (PD000) of every compiled residual program, a
# silent identity diff, and detection of the audit example's known
# hospital allow-* expansion (must exit 1 with PD001 — proves the
# expansion detector works, and pins that the bundle stays expansive).
lint: vet
	$(GO) run ./cmd/plavet .
	$(GO) run ./cmd/plalint docs/sample.pla
	for f in examples/*/policy.pla; do $(GO) run ./cmd/plalint $$f || exit 1; done
	$(GO) run ./cmd/plalint -severity error -healthcare
	$(GO) run ./cmd/pladiff -validate
	$(GO) run ./cmd/pladiff -validate examples/audit/policy.pla
	$(GO) run ./cmd/pladiff - -
	out=$$($(GO) run ./cmd/pladiff -severity error - examples/audit/policy.pla; test $$? -eq 1) || exit 1; \
	echo "$$out" | grep -q 'PD001' || { echo "lint: expected PD001 expansion not detected"; exit 1; }

# Coverage with floors: internal/relation and internal/enforce must stay
# at or above 80% statement coverage (see scripts/cover.sh).
cover:
	bash scripts/cover.sh

# One-iteration pass over EVERY benchmark family: catches bitrot in the
# bench harnesses without paying for a full measurement run. BENCH_OBS
# makes the render benchmarks dump the engine's metrics snapshot.
bench-smoke:
	BENCH_OBS=BENCH_obs.json $(GO) test -run '^$$' -bench . -benchtime=1x .

bench:
	BENCH_OBS=BENCH_obs.json $(GO) test -run '^$$' -bench . -benchtime=2s .

# Full core-kernel measurement run: vectorized vs row-at-a-time vs
# nested-loop, and the production (folded) render vs the interpreted
# render, at 1k/10k/100k, converted to BENCH_core.json with the >=5x
# vectorized and >=1.5x compiled speedup floors and the <=40x ETL
# 100k-over-10k scaling ceiling enforced.
# The out-of-core families (RenderSegment/JoinSegment/ScanPruned) are
# excluded here — they have their own scale lane below.
bench-core:
	$(GO) test -run '^$$' -bench '^BenchmarkCore(Join(Nested)?|Render(Compiled)?|ETL|Rewrite)$$' -benchtime=5x -benchmem . | tee bench_core.txt
	$(GO) run ./cmd/benchjson -in bench_core.txt -out BENCH_core.json -check -min-compiled 1.5

# Incremental-refresh lane: stream delta batches through the warehouse
# under background render traffic, in both refresh modes at 1k/10k/100k,
# converted to BENCH_delta.json with the >=5x delta-over-rebuild floor
# and the >=50% plan-cache retention floor enforced at 100k.
bench-delta:
	$(GO) test -run '^$$' -bench '^BenchmarkDeltaRefresh$$' -benchtime=5x -benchmem . | tee bench_delta.txt
	$(GO) run ./cmd/benchjson -in bench_delta.txt -out BENCH_delta.json -suite delta -check-delta

# Memory-ceiling check: stream 1M rows through a SegmentWriter and scan
# them back (pruned select, full scan, aggregation) with the runtime's
# soft memory limit pinned to half the table's in-memory footprint; the
# sampled peak heap must stay under that budget. PLABI_SCALE_10M=1 runs
# the 10M-row variant.
scale-ceiling:
	PLABI_SCALE=1 $(GO) test -run '^TestScaleMemoryCeiling$$' -count=1 -v .

# Out-of-core scale lane: the segment-backed render and join against
# their in-memory twins plus the zone-map pruning scan, at 1M rows,
# converted to BENCH_scale.json with the >=50% pruned-segment floor
# enforced. Two iterations per benchmark keep the 1M lane under a few
# minutes; the numbers feed the README trajectory, not benchstat.
bench-scale:
	PLABI_SCALE=1 $(GO) test -run '^$$' -bench '^BenchmarkCore(RenderSegment|JoinSegment|ScanPruned)$$' -benchtime=2x -benchmem -timeout 40m . | tee bench_scale.txt
	$(GO) run ./cmd/benchjson -in bench_scale.txt -out BENCH_scale.json -suite scale -check-scale -min-prune 0.5

# Serving benchmark: the load harness self-hosts a two-tenant plabid,
# drives a mixed render/check workload and writes BENCH_serve.json.
# Exits non-zero when the (generous) SLO floors are violated — total p99
# above 500ms or error rate above 1%.
serve-bench:
	$(GO) run ./cmd/plabid-load -duration 5s -concurrency 8 \
		-out BENCH_serve.json -slo-p99-ms 500 -slo-error-rate 0.01

# Chaos suite: the healthcare scenario under deterministic fault
# schedules (fixed seed matrix, override with CHAOS_SEEDS=1,2,3) with the
# race detector on. On failure the fault schedule and the audit sink
# contents land in ./chaos-artifacts for offline replay.
chaos:
	CHAOS_ARTIFACT_DIR=./chaos-artifacts $(GO) test -race -run TestChaos ./internal/core -count=1 -v

# Short fuzz campaigns over the SQL parser, the PLA DSL parser, the
# columnar segment decoder and Jaro-Winkler (byte path ≡ rune path, bound
# ≥ score); the checked-in corpora under */testdata/fuzz replay first.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseSelect -fuzztime $(FUZZTIME) ./internal/sql
	$(GO) test -run '^$$' -fuzz FuzzParseFile -fuzztime $(FUZZTIME) ./internal/policy
	$(GO) test -run '^$$' -fuzz FuzzSegmentDecode -fuzztime $(FUZZTIME) ./internal/relation
	$(GO) test -run '^$$' -fuzz FuzzJaroWinkler -fuzztime $(FUZZTIME) ./internal/textutil

ci: lint build race chaos bench-smoke scale-ceiling bench-scale cover
