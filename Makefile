# Developer entry points. CI runs the same commands.

GO ?= go

# The serving-path benchmarks whose trajectory BENCH_serving.json tracks.
SERVING_BENCH = BenchmarkStoreAdd|BenchmarkStoreAddSparse|BenchmarkStoreParallelAdd|BenchmarkStoreCount|BenchmarkStoreCountSparse|BenchmarkServerPFAdd|BenchmarkServerParallelPFAdd|BenchmarkPipelinedPFAdd|BenchmarkDispatchPFAdd|BenchmarkDispatchPFAddInstrumented|BenchmarkDispatchPFCount|BenchmarkDispatchWAdd|BenchmarkClusterRoutedPFAdd|BenchmarkClusterBatchedPFAdd|BenchmarkClusterFanoutPFCount|BenchmarkClusterRoutedWAdd|BenchmarkClusterWindowCount|BenchmarkWindowInsert|BenchmarkWindowEstimate|BenchmarkCodecEncode|BenchmarkCodecDecode

.PHONY: build vet test race bench bench-smoke loadtest fuzz

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: build vet
	$(GO) test ./...

race:
	$(GO) test -race -timeout 5m ./server/ ./cluster/ ./window/

# bench runs the serving-path benchmarks and records them (parsed +
# benchstat-comparable raw lines) in BENCH_serving.json. Compare across
# commits with: jq -r '.raw[]' BENCH_serving.json | benchstat old /dev/stdin
bench:
	$(GO) test -run '^$$' -bench '$(SERVING_BENCH)' -benchmem -benchtime=1s -cpu 1,8 ./server/ ./cluster/ ./window/ ./internal/compress/ \
		| $(GO) run ./cmd/ell-benchjson > BENCH_serving.json
	@echo wrote BENCH_serving.json

# bench-smoke compiles and runs every benchmark once — a fast
# does-it-still-run check, not a measurement. CI runs this non-blocking.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./server/ ./cluster/ ./window/ ./internal/compress/

# loadtest is the cluster-level smoke: ell-loader boots 3 in-process
# nodes and drives a mixed zipf workload for 30s — once through a
# coordinator node that forwards to owners, once single-hop through the
# smart client against strict-routing nodes. Each JSON result is folded
# into BENCH_serving.json as a pkg "cluster-load" row keyed by its
# route (replacing the previous row of the same shape), so the two
# routes stay comparable across runs. CI runs this non-blocking.
loadtest:
	$(GO) run ./cmd/ell-loader -self 3 -replicas 2 -conns 4 -depth 32 \
		-duration 30s -warmup 2s -keys 1000 -dist zipf -out load.json
	$(GO) run ./cmd/ell-benchjson -in BENCH_serving.json -load load.json </dev/null > BENCH_serving.json.tmp
	mv BENCH_serving.json.tmp BENCH_serving.json
	$(GO) run ./cmd/ell-loader -self 3 -replicas 2 -conns 4 -depth 32 \
		-duration 30s -warmup 2s -keys 1000 -dist zipf -single-hop -out load.json
	$(GO) run ./cmd/ell-benchjson -in BENCH_serving.json -load load.json </dev/null > BENCH_serving.json.tmp
	mv BENCH_serving.json.tmp BENCH_serving.json
	rm -f load.json
	@echo folded coordinator and single-hop cluster load rows into BENCH_serving.json

# fuzz runs every fuzz target there is, FUZZTIME each: the list is what
# `go test -list` finds per package (-fuzz takes one target of one package
# at a time), so a new target cannot be forgotten here. CI runs the seed
# corpora of the same targets as a blocking step (go test -run '^Fuzz' ./...).
FUZZTIME ?= 30s

fuzz:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
			echo "== $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done
