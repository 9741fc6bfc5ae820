package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/chaos"
	"repro/internal/memreg"
	"repro/internal/rpcrdma"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from this build's output")

// goldenDigest renders digests of points the rest of this package already
// runs, one per server receive path and transfer design, so a refactor that
// moves a single event shows up as a text diff against the committed file.
func goldenDigest() string {
	var b strings.Builder

	end, dig := runFig5Point(7)
	fmt.Fprintf(&b, "fig5 per-conn read-write seed=7\nend=%d\n%s\n\n", int64(end), dig)

	b.WriteString("capacity sharded 8 clients seed=3\n")
	b.WriteString(capacityDigest(RunCapacityWith(testScale, CapacityOptions{
		ClientCounts:         []int{8},
		AggregateOfferedMBps: []float64{2400},
		Seed:                 3,
	})))
	b.WriteString("\n")

	designs := []rpcrdma.Design{rpcrdma.ReadRead, rpcrdma.ReadWrite, rpcrdma.ReplyFetch}
	for _, d := range designs {
		r := chaos.Run(chaos.Config{Seed: 1, Design: d, Shards: 2, Multiplex: true, Affinity: true,
			Faults: 4, TraceCapacity: 1 << 20})
		fmt.Fprintf(&b, "chaos mux %v seed=1\n%s\n", d, r.Fingerprint)
	}
	b.WriteString("\n")

	for _, hardened := range []bool{false, true} {
		r := adversary.Run(adversary.Config{Seed: 5, Design: rpcrdma.ReadRead, RegMode: memreg.FMR,
			Clients: 3, Multiplex: true, Hardened: hardened, Attacks: adversary.AttackAll})
		fmt.Fprintf(&b, "adversary mux read-read/fmr all attacks seed=5 hardened=%t\n%s\n", hardened, r.Fingerprint)
	}
	return b.String()
}

// TestGolden is the cross-commit oracle: same-seed tests elsewhere compare
// two runs of one build, this one compares the build against the output
// recorded at an earlier commit. A behaviour-preserving change leaves
// testdata/golden.txt untouched; a deliberate behaviour change regenerates
// it with `go test ./internal/experiments -run TestGolden -update` and the
// diff is reviewed like code.
func TestGolden(t *testing.T) {
	const path = "testdata/golden.txt"
	got := goldenDigest()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
