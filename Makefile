GO ?= go

.PHONY: build test check vet fmt lint bench loc allocs

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails if gofmt would change any file in the tree, and names the files.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# lint is the determinism lint: it fails on a range over a map in non-test
# code under internal/ that is not on the test's allow-list, since Go's map
# order would make a seed's run differ from itself; and the process lint: it
# fails on a call of Sim.Spawn or Sim.SpawnAt in non-test code of the
# packages on the RPC path, whose waits are chains (see determinism_test.go);
# and the docs lint: it fails when README.md, EXPERIMENTS.md, DESIGN.md or the
# verify skill pass nfsrdma-bench or nfsrdma-experiments a flag the command
# does not define (see docs_test.go); and the config lint: it fails when
# chaos.Config or adversary.Config declares a field a config it embeds
# already has (see config_test.go).
lint:
	$(GO) test -run '^(TestNoMapOrderInSimulation|TestNoSpawnOnRPCPath|TestDocsNameOnlyDefinedFlags|TestConfigStatedOnce)$$' .

# check is the CI gate: gofmt, vet and the determinism lint, then every suite
# once under the race detector. The parallel sweep runner makes simulations genuinely
# concurrent, so -race here guards the "no shared mutable state between
# sims" invariant, not just test hygiene. One uninstrumented pass follows:
# the 512-client three-design server-CPU ordering as the plain build
# computes it.
#
# The mux capacity sweep at its full 10240 clients belongs to tier-1
# (`make test`, the plain build): race builds sweep 512 and 2048 clients —
# the detector costs ~10x per simulated instruction; see muxCapTestClients —
# and check does not repeat the full-scale run.
#
# go1.24's runtime does not release a coroutine's race-detector context when
# the coroutine ends (coroexit never reaches racegoend), so under -race every
# process carrier ever created leaves ~3.5 KB behind until the test binary
# exits. internal/experiments is where that adds up: as one binary its race
# pass peaked at 12.2 GB, so it runs after the other packages, one top-level
# test per binary (`go test -list` names them), and a binary's peak is its
# own test's, not the sum over the package. Uninstrumented builds are not
# affected.
#
# The chaos package's soak test widens with CHAOS_SEEDS, e.g.:
#
#     CHAOS_SEEDS=256 make check
#
# Last, each fuzz target gets ten seconds beyond its seed corpus (plain
# `go test` runs only the seeds). A failing input is written to the
# package's testdata/fuzz/, where it becomes a seed once committed.
check: fmt vet lint
	$(GO) test -race $$($(GO) list ./... | grep -v '/internal/experiments$$')
	for t in $$($(GO) test -race -list . ./internal/experiments/ | grep '^Test'); do \
		$(GO) test -race -run "^$$t\$$" ./internal/experiments/ || exit 1; \
	done
	$(GO) test -run 'TestCapacityReplyFetchServerCPU512' ./internal/experiments/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCall$$' -fuzztime=10s ./internal/oncrpc/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeHeaderInto$$' -fuzztime=10s ./internal/rpcrdma/
	$(GO) test -run '^$$' -fuzz '^FuzzDispatch$$' -fuzztime=10s ./internal/nfs3/
	$(GO) test -run '^$$' -fuzz '^FuzzXDR$$' -fuzztime=10s ./internal/nfs3/

# loc prints the count ROADMAP.md tracks: non-blank, non-comment lines of
# non-test Go outside benchmark/.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | grep -v '^\s*$$' | grep -v '^\s*//' | wc -l

# allocs prints the heap allocations one simulated RPC costs per design (an
# NFS NULL, an 8 KiB direct READ, the Fig. 5 point's 128 KiB direct WRITE
# under dynamic registration, an all-physical 64 KiB READ, a READDIRPLUS of
# 32 entries), then for the fan-in server (8 shards, multiplexed, affinity,
# Reply-Fetch: a NULL and the all-physical READ) and, under each, the lines
# that allocate, in allocations per RPC (TestAllocsPerRPC); then the spawns
# and parks one RPC costs the kernel (TestProcessesPerRPC); then what a
# staging chunk's Get+Put, a replay-cache entry and a namespace ReadDir into
# a reused slice cost (TestChunkIsOneObject, TestDRCEntryIsItsReplyCopy,
# TestReadDirIntoReusedSliceAllocatesNothing).
allocs:
	$(GO) test -count=1 -run 'TestAllocsPerRPC$$|TestProcessesPerRPC$$' -v ./internal/core/
	$(GO) test -count=1 -run 'TestChunkIsOneObject$$|TestDRCEntryIsItsReplyCopy$$|TestReadDirIntoReusedSliceAllocatesNothing$$' -v ./internal/memreg/ ./internal/oncrpc/ ./internal/vfs/

# bench runs the DES kernel microbenchmarks (schedule->resume path,
# queue/event/resource wakeups, timer heap, process spawn on a pooled
# carrier, callback events, a resource round as a callback chain) with
# allocation stats. The
# repository's end-to-end and per-layer benchmark is benchmark/ (see
# benchmark/README.md).
bench:
	$(GO) test ./internal/des/ -run NONE -bench BenchmarkKernel -benchmem
