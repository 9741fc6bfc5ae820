GO ?= go

.PHONY: build test check vet bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# check is the CI gate: static analysis, then every suite once under the
# race detector. The parallel sweep runner makes simulations genuinely
# concurrent, so -race here guards the "no shared mutable state between
# sims" invariant, not just test hygiene. Two uninstrumented passes follow:
# the mux capacity sweep at its full 10240 clients (race builds cap it at
# 2048 — the detector costs ~10x per simulated instruction; see
# muxCapTestClients), and the 512-client three-design server-CPU ordering
# as the plain build computes it.
#
# The chaos package's soak test widens with CHAOS_SEEDS, e.g.:
#
#     CHAOS_SEEDS=256 make check
check: vet
	$(GO) test -race ./...
	$(GO) test -run 'MuxCapacity' ./internal/experiments/
	$(GO) test -run 'TestCapacityReplyFetchServerCPU512' ./internal/experiments/

# bench runs the DES kernel microbenchmarks (schedule->resume path,
# queue/event/resource wakeups, timer heap) with allocation stats. The
# repository's end-to-end and per-layer benchmark is benchmark/ (see
# benchmark/README.md).
bench:
	$(GO) test ./internal/des/ -run NONE -bench BenchmarkKernel -benchmem
