package experiments

import (
	"fmt"
	"testing"
	_ "unsafe" // go:linkname
)

// noReuse is the simulation kernel's test hook: set, every des.FreeList
// drops what is put back, so every Get allocates.
//
//go:linkname noReuse repro/internal/des.noReuse
var noReuse bool

// withoutReuse runs test with nothing reused from a free list.
func withoutReuse(t *testing.T, test func(*testing.T)) {
	noReuse = true
	defer func() { noReuse = false }()
	test(t)
}

// Reuse is unobservable: the cross-commit goldens and a chaos table, run with
// every free list dropping what it is given, come out byte-identical to the
// runs that reuse (the goldens are those runs). An object reused without
// being zeroed, or read after it was put back, shows up as a diff here.
func TestGoldenWithoutReuse(t *testing.T) { withoutReuse(t, TestGolden) }

func TestGoldenTelemetryWithoutReuse(t *testing.T) { withoutReuse(t, TestGoldenTelemetry) }

func TestChaosSweepWithoutReuse(t *testing.T) {
	digest := func() string {
		r := RunChaos(testScale * 2)
		return fmt.Sprintf("%+v\n%s", r.Points, r.Table)
	}
	reused := digest()
	var fresh string
	withoutReuse(t, func(*testing.T) { fresh = digest() })
	if reused != fresh {
		t.Fatalf("the chaos sweep differs without reuse:\n--- reused ---\n%s\n--- fresh ---\n%s", reused, fresh)
	}
}
