# Developer entry points. CI runs the same commands.

GO ?= go

.PHONY: build fmt-check vet test race bench-smoke fuzz

build:
	$(GO) build ./...

# gofmt walks the tree, so both modules (the root and benchmark/) are
# covered. CI runs it as a blocking step.
fmt-check:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

test: build vet
	$(GO) test ./...

# -race also turns on checkptr, which checks every unsafe.Pointer conversion
# and unsafe.Slice core.Hybrid's one-pointer handle makes, and the string
# views of command-line keys the server's store takes. The root package's
# ExampleNewAtomic inserts from four goroutines by compare-and-swap.
race:
	$(GO) test -race -timeout 5m . ./internal/core/ ./server/ ./cluster/ ./window/ ./cmd/...

# bench-smoke compiles and runs every benchmark once — a fast
# does-it-still-run check, not a measurement (measurements come from
# benchmark/, see its README). CI runs this non-blocking. -bench . takes
# whatever the packages define: the dispatch benchmarks (PFADD, PFCOUNT —
# one uncached estimate each — and WADD in server/, the forwarded-add
# BenchmarkDispatchMLAdd in cluster/), server's BenchmarkShardDigests (one
# uncached anti-entropy sweep of 3 000 keys) and the coordinator's
# BenchmarkNodeAdd/{1,40,1000,5000} (cluster/, ns/element on a 2-node
# cluster) need no list here. The root package and internal/core hold the
# sketch's own rows (BenchmarkHybridInsert/Bulk/Union/Estimate, which
# ROADMAP's insert-debt figures quote, and internal/core's BenchmarkEstimate,
# the φ-group estimator dense and sparse); internal/hashing holds
# BenchmarkWy64_16B, the micro twin of the benchmark's hashing.wy64_ns.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x . ./internal/core/ ./server/ ./cluster/ ./window/ ./internal/compress/ ./internal/hashing/

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
