package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/memreg"
	"repro/internal/rpcrdma"
	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt and testdata/telemetry_golden.txt from this build's output")

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

	// Fig. 10 at 4 GB: the only point here whose READs and WRITEs reach the
	// disk array, over RDMA and over the stream transport.
	b.WriteString("fig10 4GB 1-4 clients\n")
	fig10 := RunFigure10(testScale, 4<<30, 4)
	for _, tr := range []core.Transport{core.TransportRDMA, core.TransportIPoIB, core.TransportGigE} {
		fmt.Fprintf(&b, "%+v\n", fig10.Series[tr])
	}
	b.WriteString("\n")

	designs := []rpcrdma.Design{rpcrdma.ReadRead, rpcrdma.ReadWrite, rpcrdma.ReplyFetch}
	for _, d := range designs {
		r := chaos.Run(chaos.Config{Config: core.Config{Seed: 1, Design: d, ServerShards: 2, Multiplex: true, Affinity: true},
			Faults: 4, TraceCapacity: 1 << 20})
		fmt.Fprintf(&b, "chaos mux %v seed=1\n%s\n", d, r.Fingerprint)
	}
	b.WriteString("\n")

	for _, hardened := range []bool{false, true} {
		r := adversary.Run(adversary.Config{Config: chaos.Config{Config: core.Config{Seed: 5, Design: rpcrdma.ReadRead, RegMode: memreg.FMR,
			Clients: 3, Multiplex: true, Affinity: true}}, Hardened: hardened, Attacks: adversary.AttackAll})
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

// seriesGolden pins one point's telemetry: the SHA-256 of its whole
// telemetryDigest (CSV + JSON + findings, so every exported byte), then one
// line per series — sample count, sum and a hash of the raw values — so a
// mismatch names the probe that moved, then the findings in full. The
// digests themselves run to 4 MB for the three runs below; this is 1% of it.
func seriesGolden(b *strings.Builder, label string, r *telemetry.Report) {
	fmt.Fprintf(b, "--- %s\ndigest %x\n", label, sha256.Sum256([]byte(telemetryDigest(r))))
	if r == nil {
		return
	}
	for _, s := range r.Series {
		h, sum := sha256.New(), 0.0
		for _, v := range s.Values {
			sum += v
			binary.Write(h, binary.LittleEndian, v) // a hash.Hash never fails a Write
		}
		fmt.Fprintf(b, "%-28s %-5s start=%d n=%d sum=%.17g values=%x\n", s.Name, s.Kind, s.Start, len(s.Values), sum, h.Sum(nil)[:8])
	}
	for _, f := range r.Findings {
		fmt.Fprintf(b, "%s\n", f)
	}
}

// telemetryGoldenDigest covers one capacity point, one mux-capacity point
// (both connection modes, three designs each) and two multiplexed chaos runs:
// server crashes, QP errors and the reconnects they force.
func telemetryGoldenDigest() string {
	var b strings.Builder

	capPts := RunCapacityWith(testScale, CapacityOptions{
		ClientCounts:         []int{32},
		AggregateOfferedMBps: []float64{2400},
		Seed:                 7,
		TelemetryInterval:    testTelemetryInterval,
	})
	for _, pt := range capPts.Points {
		seriesGolden(&b, fmt.Sprintf("capacity seed=7 %d clients %s %.0f MB/s", pt.Clients, pt.Design, pt.OfferedMBps), pt.Telemetry)
	}

	mux := RunMuxCapacityWith(testScale, CapacityOptions{
		ClientCounts:         []int{64},
		AggregateOfferedMBps: []float64{1200},
		Seed:                 7,
		TelemetryInterval:    testTelemetryInterval,
	})
	for _, pt := range mux.Points {
		seriesGolden(&b, fmt.Sprintf("muxcap seed=7 %d clients mux=%t %s %.0f MB/s", pt.Clients, pt.Multiplex, pt.Design, pt.OfferedMBps), pt.Telemetry)
	}

	r := chaos.Run(chaos.Config{Config: core.Config{Seed: 1, Design: rpcrdma.ReadWrite, ServerShards: 2, Multiplex: true, Affinity: true},
		Faults: 4, TelemetryInterval: testTelemetryInterval})
	seriesGolden(&b, "chaos mux read-write seed=1 "+r.Fingerprint, r.Report)
	// Seed 2 has no crash but call timeouts and six reconnects, which seed 1
	// does not reach.
	r = chaos.Run(chaos.Config{Config: core.Config{Seed: 2, Design: rpcrdma.ReplyFetch, ServerShards: 2, Multiplex: true, Affinity: true},
		Faults: 6, TelemetryInterval: testTelemetryInterval})
	seriesGolden(&b, "chaos mux reply-fetch seed=2 "+r.Fingerprint, r.Report)
	return b.String()
}

// TestGoldenTelemetry is TestGolden for the telemetry series. The same-seed
// telemetry tests compare two runs of one build; this compares what every
// probe returned on every tick against the file recorded at the last commit
// whose probes walked the clients.
func TestGoldenTelemetry(t *testing.T) {
	const path = "testdata/telemetry_golden.txt"
	got := telemetryGoldenDigest()
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
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Errorf("%s line %d:\n got %s\nwant %s", path, i+1, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		t.Errorf("%s: got %d lines, want %d", path, len(g), len(w))
	}
}
