package experiments

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/experiments/runner"
	"repro/internal/rpcrdma"
	"repro/internal/stats"
)

// ChaosPoint aggregates one (design, shards) cell of the chaos soak: N
// seeded fault schedules, each judged by the data-integrity oracle and the
// trace invariant checkers.
type ChaosPoint struct {
	Design      rpcrdma.Design
	Shards      int
	Multiplex   bool
	Seeds       int
	Crashes     int64
	Reconnects  int64
	Replays     int64
	WritesAcked int64
	OracleReads int64
	RenamesOK   int64
	Failures    int      // runs with oracle or invariant violations
	FailedSeeds []uint64 // which seeds failed (reproduce with chaos.Run at that Seed)
}

// Chaos is the chaos soak result.
type Chaos struct {
	Points []ChaosPoint
	Table  *stats.Table
}

// chaosSeedsFor derives the soak width from the scale divisor: the paper-
// scale run (-scale 1) soaks 32 seeds per cell, the default -scale 4 eight.
func chaosSeedsFor(scale Scale) int {
	n := int(scale.div64(32))
	if n < 2 {
		n = 2
	}
	return n
}

// RunChaos soaks seeded fault schedules — QP errors, link flaps, server
// crash/restart cycles — against all three transfer designs and all three server
// receive paths (per-connection, SRQ-sharded, and shared-QP multiplexed).
// Every run must satisfy the data-integrity oracle (every READ byte
// explained by the write history, non-idempotent replays legal only across
// a crash window) and the trace invariant checkers from the tracing layer.
// The table reports recovery work done and a failure count that should read
// zero.
func RunChaos(scale Scale) *Chaos {
	out := &Chaos{
		Table: stats.NewTable("Chaos soak: seeded fault schedules (QP errors, link flaps, server crashes), 2 clients, integrity oracle + trace invariants",
			"design", "mode", "seeds", "crashes", "reconnects", "replays", "writes", "oracle reads", "renames", "failures"),
	}
	seeds := chaosSeedsFor(scale)
	type serverMode struct {
		name   string
		shards int
		mux    bool
	}
	modes := []serverMode{{"per-conn", 0, false}, {"sharded", 2, false}, {"mux", 2, true}}
	cells := runner.Grid(len(allDesigns), len(modes))

	results := pmap(len(cells)*seeds, func(i int) *chaos.Result {
		c := cells[i/seeds]
		m := modes[c[1]]
		return chaos.Run(chaos.Config{
			Config: core.Config{Seed: uint64(i%seeds + 1), Design: allDesigns[c[0]],
				ServerShards: m.shards, Multiplex: m.mux, Affinity: m.mux},
			Faults:        4,
			TraceCapacity: 1 << 20,
		})
	})

	for ci, c := range cells {
		pt := ChaosPoint{Design: allDesigns[c[0]], Shards: modes[c[1]].shards,
			Multiplex: modes[c[1]].mux, Seeds: seeds}
		for s := 0; s < seeds; s++ {
			r := results[ci*seeds+s]
			pt.Crashes += r.Crashes
			pt.Reconnects += r.Reconnects
			pt.Replays += r.Replays
			pt.WritesAcked += r.Load.WritesAcked
			pt.OracleReads += r.OracleReads
			pt.RenamesOK += r.Load.RenamesOK
			if r.Failed() {
				pt.Failures++
				pt.FailedSeeds = append(pt.FailedSeeds, r.Schedule.Seed)
			}
		}
		out.Points = append(out.Points, pt)
		failures := "0"
		if pt.Failures > 0 {
			failures = fmt.Sprintf("%d (seeds %v)", pt.Failures, pt.FailedSeeds)
		}
		out.Table.AddRow(pt.Design.String(), modes[c[1]].name, pt.Seeds, pt.Crashes,
			pt.Reconnects, pt.Replays, pt.WritesAcked, pt.OracleReads, pt.RenamesOK, failures)
	}
	return out
}
