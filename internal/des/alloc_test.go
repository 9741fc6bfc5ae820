package des

import (
	"testing"
)

// TestKernelBenchmarksAllocFree pins the kernel's allocation contract with
// tracing disabled (the default): every kernel benchmark's hot path runs at
// 0 allocs/op, and a spawn costs its Proc and nothing else (the carrier is
// reused). The tracing layer must remain a nil-check when off — a
// regression here means an instrumentation site allocates even when no
// tracer is installed. Each benchmark runs once with 1<<17 operations, built
// before the count starts, and like testing.Benchmark's figure the count is
// the run's allocations over the operations, rounded down.
func TestKernelBenchmarksAllocFree(t *testing.T) {
	const n = 1 << 17
	for _, b := range kernelBenchmarks {
		t.Run(b.name, func(t *testing.T) {
			// AllocsPerRun calls its function once to warm up, then once to
			// count: each call runs a simulation of its own.
			sims := []*Sim{b.sim(n), b.sim(n)}
			allocs := testing.AllocsPerRun(1, func() {
				sims[0].Run()
				sims = sims[1:]
			})
			if perOp := int(allocs) / n; perOp > b.max {
				t.Fatalf("kernel %s: %d allocs/op with tracing disabled, want <= %d", b.name, perOp, b.max)
			}
		})
	}
}
