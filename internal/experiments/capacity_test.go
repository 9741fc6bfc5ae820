package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rpcrdma"
)

// pointsDigest renders the fields a capacity point had before it embedded
// workload.OpenLoopResult, in the form %+v gave them then: testdata/golden.txt
// holds this text.
func pointsDigest(pts []CapacityPoint) string {
	var b strings.Builder
	for i, p := range pts {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "{Clients:%d Design:%v OfferedMBps:%v AchievedMBps:%v P50:%v P99:%v Issued:%d Completed:%d Dropped:%d ServerCPUPct:%v SRQStarved:%d SRQLimitEvents:%d MaxQueueDepth:%d Telemetry:%v}",
			p.Clients, p.Design, p.OfferedMBps, p.AchievedMBps, p.P50, p.P99, p.Issued, p.Completed, p.Dropped,
			p.ServerCPUPct, p.SRQStarved, p.SRQLimitEvents, p.MaxQueueDepth, p.Telemetry)
	}
	return "[" + b.String() + "]"
}

// capacityDigest folds every observable output of a capacity sweep into one
// comparable string.
func capacityDigest(r *Capacity) string {
	return fmt.Sprintf("%s\n%s\n%s", pointsDigest(r.Points), r.Curves.String(), r.Knee.String())
}

// TestCapacitySameSeed512 pins determinism at the sweep's largest
// configuration: two same-seed runs of the 512-client point must be
// byte-identical, tables included.
func TestCapacitySameSeed512(t *testing.T) {
	opts := CapacityOptions{
		ClientCounts:         []int{512},
		AggregateOfferedMBps: []float64{2400},
		Seed:                 7,
	}
	a := capacityDigest(RunCapacityWith(testScale, opts))
	b := capacityDigest(RunCapacityWith(testScale, opts))
	if a != b {
		t.Fatalf("same-seed 512-client capacity runs differ:\n%s\n---\n%s", a, b)
	}
}

// TestCapacitySeqVsParallel checks that the sweep's parallel fan-out is
// invisible in the results: one worker and eight workers must produce
// byte-identical output.
func TestCapacitySeqVsParallel(t *testing.T) {
	opts := CapacityOptions{
		ClientCounts:         []int{8, 32},
		AggregateOfferedMBps: []float64{300, 2400},
		Seed:                 3,
	}
	SetParallelism(1)
	defer SetParallelism(0)
	seq := capacityDigest(RunCapacityWith(testScale, opts))
	SetParallelism(8)
	par := capacityDigest(RunCapacityWith(testScale, opts))
	if seq != par {
		t.Fatalf("sequential and parallel capacity sweeps differ:\n%s\n---\n%s", seq, par)
	}
}

// TestCapacityKneeAndDesignOrdering smoke-checks the sweep's physics on a
// reduced grid: every (clients, design) curve must show a saturation knee
// (achieved falls below offered at the top load), and Read-Write must
// sustain at least Read-Read's peak throughput at every client count —
// Read-Read pays an extra server round (RDMA Read + DONE) per transfer.
func TestCapacityKneeAndDesignOrdering(t *testing.T) {
	opts := CapacityOptions{
		ClientCounts:         []int{8, 32},
		AggregateOfferedMBps: []float64{300, 1200, 2400},
		Seed:                 5,
	}
	r := RunCapacityWith(testScale, opts)
	t.Logf("\n%s\n%s", r.Curves.String(), r.Knee.String())

	loads := len(opts.AggregateOfferedMBps)
	wantPoints := len(opts.ClientCounts) * 3 * loads
	if len(r.Points) != wantPoints {
		t.Fatalf("got %d points, want %d", len(r.Points), wantPoints)
	}
	peak := map[[2]interface{}]float64{}
	for g := 0; g+loads <= len(r.Points); g += loads {
		run := r.Points[g : g+loads]
		top := run[loads-1]
		if top.AchievedMBps >= saturationRatio*top.OfferedMBps {
			t.Errorf("%d clients %s: no knee — achieved %.1f of offered %.1f MB/s at top load",
				top.Clients, top.Design, top.AchievedMBps, top.OfferedMBps)
		}
		for _, p := range run {
			if p.Completed == 0 {
				t.Errorf("%d clients %s offered %.0f: no completions", p.Clients, p.Design, p.OfferedMBps)
			}
			if p.Completed > 0 && (p.P99 < p.P50 || p.P50 <= 0) {
				t.Errorf("%d clients %s offered %.0f: bad quantiles p50=%.1f p99=%.1f",
					p.Clients, p.Design, p.OfferedMBps, p.P50, p.P99)
			}
			key := [2]interface{}{p.Clients, p.Design}
			if p.AchievedMBps > peak[key] {
				peak[key] = p.AchievedMBps
			}
		}
	}
	for _, n := range opts.ClientCounts {
		rr := peak[[2]interface{}{n, rpcrdma.ReadRead}]
		rw := peak[[2]interface{}{n, rpcrdma.ReadWrite}]
		if rw < rr {
			t.Errorf("%d clients: Read-Write peak %.1f MB/s below Read-Read peak %.1f MB/s", n, rw, rr)
		}
	}
	if len(r.Knee.String()) == 0 {
		t.Fatal("empty knee table")
	}
}

// TestCapacityReplyFetchServerCPU512 pins reply-fetch's payoff at the
// sweep's largest population: with 512 clients the server's CPU cost per
// completed op must be strictly lower under reply-fetch than under either
// Send-based reply path — no reply Send to post, no send completion to
// wait on, no completion interrupt to take.
func TestCapacityReplyFetchServerCPU512(t *testing.T) {
	opts := CapacityOptions{
		ClientCounts:         []int{512},
		AggregateOfferedMBps: []float64{2400},
		Seed:                 7,
	}
	r := RunCapacityWith(testScale, opts)
	perOp := map[rpcrdma.Design]float64{}
	for _, p := range r.Points {
		if p.Completed == 0 {
			t.Fatalf("%s: no completions", p.Design)
		}
		perOp[p.Design] = p.ServerCPUPct / float64(p.Completed)
		t.Logf("%-11s srvCPU=%.2f%% completed=%d cpu/op=%.6f", p.Design, p.ServerCPUPct, p.Completed, perOp[p.Design])
	}
	rfp := perOp[rpcrdma.ReplyFetch]
	for _, d := range []rpcrdma.Design{rpcrdma.ReadRead, rpcrdma.ReadWrite} {
		if rfp >= perOp[d] {
			t.Errorf("reply-fetch server CPU/op %.6f not below %s's %.6f", rfp, d, perOp[d])
		}
	}
}
