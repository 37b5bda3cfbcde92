GO ?= go

# The packed GEMM micro-kernel accumulates with math.FMA, which compiles
# to a bare VFMADD under GOAMD64=v3 but carries a per-call CPU-feature
# branch at the v1 default (~2.5x slower on the dense kernels). All hosts
# we target have AVX2+FMA; override with `make GOAMD64=v1 ...` for
# baseline-compatible builds. Results are bit-identical either way —
# math.FMA computes the same correctly-rounded value on every path.
export GOAMD64 ?= v3

.PHONY: build test tier1 lint bench bench-gemm bench-trace bench-obs bench-dist bench-serve bench-lint vet fmt journal-demo trace-demo

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static-analysis gate: the repolint analyzer suite (stdlib go/ast +
# go/types checks enforcing the determinism, concurrency, and
# crash-safety invariants — DESIGN.md §10) plus gofmt cleanliness.
# Zero unsuppressed diagnostics or the build fails; deliberate waivers
# carry a //lint:ignore <check> <reason> annotation.
lint:
	$(GO) run ./cmd/repolint
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: these files need formatting:"; echo "$$out"; exit 1; fi

# Tier-1 gate: static analysis, vet, and race-enabled tests for every
# package in the module (the race gate covers the worker pool, parallel
# kernels, parallel ALSH workers, tracer/metrics registry, the
# checkpoint/resume machinery, and the serving layer's concurrent
# predict + hot-swap path; internal/bench dominates the runtime). The
# benchmark harness is its own module, so it is vetted and tested from
# its own directory: its wrapper test pins each method's set of optional
# core interfaces.
tier1: lint
	$(GO) vet ./...
	$(GO) test -race ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -run '^$$' -bench . -benchtime 10x .

# Serial-vs-parallel GEMM kernel sweep; every parallel point is checked
# bit-for-bit against the serial kernel before its timing is recorded.
# -autotune picks the packed-GEMM block sizes for this host first;
# -baseline gates the run against the committed report, failing on any
# serial point that lost >20% GFLOPS (the output is written only when
# the gate passes).
bench-gemm:
	$(GO) run ./cmd/benchgemm -sizes 128,256,512 -workers 1,2,4 \
		-autotune -baseline BENCH_gemm.json -out BENCH_gemm.json

# Distributed data-parallel throughput sweep: steps/sec at 1, 2, and 4
# worker processes against the in-process reference, every point checked
# byte-for-byte against the single-process weights before it is recorded.
bench-dist:
	$(GO) run ./cmd/benchdist -workers 1,2,4 -epochs 3 -out BENCH_distributed.json

# Serving-layer sweep: /predict latency percentiles and throughput at
# 1, 2, and 4 closed-loop workers against a real mlpserve instance on a
# loopback port; every point's responses are verified against a local
# forward pass of the served checkpoint before its timing is recorded.
bench-serve:
	$(GO) run ./cmd/benchserve -workers 1,2,4 -requests 300 -rows 4 -out BENCH_serve.json

# Tracer and error-probe overhead on ALSH-approx training: two baseline
# runs expose the host noise floor, then tracer-on / probe-on / both are
# measured against their mean.
bench-trace:
	$(GO) run ./cmd/benchtrace -scale small -out BENCH_trace.json

# Correlation-plane overhead: ns per context-stamped dist frame round
# trip (vs the zero-context baseline), ns per HTTP request-context
# derivation, and the disabled journal path; merged into BENCH_trace.json
# next to the tracer numbers.
bench-obs:
	$(GO) run ./cmd/benchtrace -obs -out BENCH_trace.json

# Analyzer-suite timing: loader wall time (parse + wave-parallel
# type-checking over internal/pool) and analysis wall time (call graph,
# fact fixpoint, checks) over the real module, each iteration from a
# cold loader.
bench-lint:
	$(GO) run ./cmd/benchlint -iters 3 -out BENCH_lint.json

# Two-epoch synthetic run that journals every event, then pretty-prints
# the journal — the fastest way to see the telemetry schema end to end.
journal-demo:
	rm -f /tmp/journal-demo.jsonl
	$(GO) run ./cmd/mlptrain -dataset mnist -method alsh -epochs 2 \
		-train 400 -test 100 -units 64 -layers 2 -confusion=false \
		-journal /tmp/journal-demo.jsonl
	$(GO) run ./cmd/journalcat /tmp/journal-demo.jsonl

# Two-epoch synthetic run with the span tracer and error-compounding
# probe enabled; writes /tmp/trace-demo.json, loadable in Perfetto
# (https://ui.perfetto.dev) or chrome://tracing.
trace-demo:
	$(GO) run ./cmd/mlptrain -dataset mnist -method alsh -epochs 2 \
		-train 400 -test 100 -units 64 -layers 2 -confusion=false \
		-probe-every 10 -trace /tmp/trace-demo.json
	@echo "trace written to /tmp/trace-demo.json — open in https://ui.perfetto.dev"

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .
