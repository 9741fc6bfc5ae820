package experiments

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/ibsim"
)

// muxCapDigest folds every observable output of a mux capacity sweep into
// one comparable string.
func muxCapDigest(r *MuxCapacity) string {
	return fmt.Sprintf("%+v\n%s\n%s", r.Points, r.Curves.String(), r.Memory.String())
}

// muxCapTestClients returns the populations these tests sweep and the
// largest of them. The plain build — the tier-1 suite, which owns the
// full-scale run — sweeps the real 10240-client point; under the race
// detector, whose instrumentation multiplies host cost roughly tenfold, the
// grid is cut to 512 and 2048 clients so that `make check` stays inside its
// time and memory budget. Every assertion below is written against the
// returned counts, so both builds check the same invariants.
func muxCapTestClients() (counts []int, big int) {
	if raceDetectorOn {
		return []int{512, 2048}, 2048
	}
	return []int{512, 2048, 10240}, 10240
}

// runMuxCap runs the sweep the three tests below assert on — seed 7 on
// muxCapTestClients' grid at 1200 MB/s — on the given number of workers.
func runMuxCap(workers int) *MuxCapacity {
	counts, _ := muxCapTestClients()
	defer SetParallelism(0)
	SetParallelism(workers)
	return RunMuxCapacityWith(testScale, CapacityOptions{
		ClientCounts:         counts,
		AggregateOfferedMBps: []float64{1200},
		Seed:                 7,
	})
}

// The sweep on eight workers, a digest of a second eight-worker run and one
// of a one-worker run. Each runs at most once per test binary, and only for
// a test that needs it: each 10240-client sweep costs ten seconds and up,
// and `make check` runs every test of this package in a binary of its own.
var (
	muxCapPar      = sync.OnceValue(func() *MuxCapacity { return runMuxCap(8) })
	muxCapParAgain = sync.OnceValue(func() string { return muxCapDigest(runMuxCap(8)) })
	muxCapSeq      = sync.OnceValue(func() string { return muxCapDigest(runMuxCap(1)) })
)

// TestMuxCapacitySameSeed10240 pins determinism at the sweep's largest
// configuration: two same-seed runs of the grid up to the 10240-client
// point — shared QPs demultiplexing ten thousand endpoints across 8 shards —
// must be byte-identical, tables included. (Race builds cap the population;
// see muxCapTestClients.)
func TestMuxCapacitySameSeed10240(t *testing.T) {
	if a, b := muxCapDigest(muxCapPar()), muxCapParAgain(); a != b {
		t.Fatalf("same-seed mux capacity runs differ:\n%s\n---\n%s", a, b)
	}
}

// TestMuxCapacitySeqVsParallel checks the sweep's parallel fan-out is
// invisible in the results at full scale: one worker and eight must produce
// byte-identical output for the 10240-client grid.
func TestMuxCapacitySeqVsParallel(t *testing.T) {
	if par, seq := muxCapDigest(muxCapPar()), muxCapSeq(); par != seq {
		t.Fatalf("sequential and parallel mux capacity sweeps differ:\n%s\n---\n%s", seq, par)
	}
}

// TestMuxCapacityMemoryScaling is the tentpole assertion on the sweep's own
// output: multiplexed receive-side state is O(shards) — the marginal cost of
// going from 512 to 10240 clients is one slot entry per extra client, while
// the per-connection server pays a full QP context each, and the honest
// per-connection receive provisioning (SRQ sized for every client's credit
// window) dwarfs the fixed multiplexed pool.
func TestMuxCapacityMemoryScaling(t *testing.T) {
	counts, big := muxCapTestClients()
	r := muxCapPar()
	t.Logf("\n%s\n%s", r.Curves.String(), r.Memory.String())

	byKey := map[[2]interface{}]CapacityPoint{}
	for _, p := range r.Points {
		if p.Completed == 0 {
			t.Errorf("%d clients mux=%v %s: no completions", p.Clients, p.Multiplex, p.Design)
		}
		key := [2]interface{}{p.Clients, p.Multiplex}
		if old, ok := byKey[key]; !ok || p.AchievedMBps > old.AchievedMBps {
			byKey[key] = p
		}
	}
	for _, n := range counts {
		mux := byKey[[2]interface{}{n, true}]
		per := byKey[[2]interface{}{n, false}]
		// The multiplexed pool is a fixed cost, so it only undercuts honest
		// per-connection provisioning once the population is large enough to
		// dominate — the crossover sits below 2048 clients.
		if n >= 2048 && mux.ServerRecvStateBytes >= per.ServerRecvStateBytes {
			t.Errorf("%d clients: mux recv state %d B not below per-conn %d B",
				n, mux.ServerRecvStateBytes, per.ServerRecvStateBytes)
		}
		if mux.Endpoints != n {
			t.Errorf("%d clients: %d live endpoints", n, mux.Endpoints)
		}
	}
	// O(shards) vs O(connections), measured: marginal cost per extra client.
	mux512 := byKey[[2]interface{}{512, true}]
	muxBig := byKey[[2]interface{}{big, true}]
	extra := int64(big - 512)
	if diff := muxBig.ServerRecvStateBytes - mux512.ServerRecvStateBytes; diff != extra*ibsim.EndpointSlotBytes {
		t.Errorf("mux marginal recv state for %d extra clients = %d B, want %d (one slot entry each)",
			extra, diff, extra*ibsim.EndpointSlotBytes)
	}
	per512 := byKey[[2]interface{}{512, false}]
	perBig := byKey[[2]interface{}{big, false}]
	perDiff := perBig.ServerRecvStateBytes - per512.ServerRecvStateBytes
	if perDiff < extra*ibsim.QPContextBytes {
		t.Errorf("per-conn marginal recv state for %d extra clients = %d B, want >= %d (a QP context each)",
			extra, perDiff, extra*ibsim.QPContextBytes)
	}
	// The saving must widen with the population: per-conn state grows with
	// clients, multiplexed state only with slot entries.
	r512 := float64(per512.ServerRecvStateBytes) / float64(mux512.ServerRecvStateBytes)
	rBig := float64(perBig.ServerRecvStateBytes) / float64(muxBig.ServerRecvStateBytes)
	if rBig <= r512 {
		t.Errorf("memory saving did not widen with clients: %.2fx at 512, %.2fx at %d", r512, rBig, big)
	}
}
