package experiments

import (
	"fmt"
	"time"

	"repro/internal/experiments/runner"
	"repro/internal/stats"
)

// MuxCapacity is the connection-scaling sweep result: throughput/p99 curves
// per connection mode and the server-memory-vs-clients table that is the
// tentpole claim — receive-side state O(shards) multiplexed versus
// O(connections) dedicated.
type MuxCapacity struct {
	Points []CapacityPoint
	Curves *stats.Table
	Memory *stats.Table
}

// RunMuxCapacity sweeps client count × connection mode × transfer design
// with the open-loop generator: dedicated per-client connections (sharded
// SRQ dispatch, receive rings provisioned honestly for every client's credit
// window) head-to-head against shared-QP multiplexing (DCT-style endpoints,
// fixed SRQ). The sweep produces the throughput-vs-p99 curves and the
// server-memory-vs-clients table at the heart of the scaling argument.
func RunMuxCapacity(scale Scale) *MuxCapacity {
	return RunMuxCapacityWith(scale, CapacityOptions{})
}

// RunMuxCapacityWith is RunMuxCapacity with an explicit grid.
func RunMuxCapacityWith(scale Scale, opts CapacityOptions) *MuxCapacity {
	opts.defaults([]int{512, 2048, 10240}, []float64{600, 1200})
	out := &MuxCapacity{
		Curves: stats.NewTable("Mux capacity: open-loop offered load vs achieved throughput and latency, per-connection vs multiplexed server, Linux DDR profile",
			"clients", "mode", "design", "offered MB/s", "achieved MB/s", "p50 µs", "p99 µs", "srv CPU%", "dropped", "migrations", "local wakes"),
		Memory: stats.NewTable("Mux capacity: server receive-side control memory vs client count (measured with population attached)",
			"clients", "per-conn bytes", "mux bytes", "saving", "mux endpoints", "mux slots"),
	}
	modes := []bool{false, true} // per-conn, multiplexed
	pts := runner.Grid(len(opts.ClientCounts), len(modes), len(allDesigns), len(opts.AggregateOfferedMBps))
	results := pmap(len(pts), func(i int) CapacityPoint {
		c := pts[i]
		clients := opts.ClientCounts[c[0]]
		cfg := capacityConfig(clients, allDesigns[c[2]], opts)
		cfg.Multiplex, cfg.Affinity = modes[c[1]], true
		if !cfg.Multiplex {
			// Honest per-connection provisioning: the shared SRQ must hold every
			// client's full credit window, or the comparison would starve the
			// dedicated-connection server instead of charging it for memory.
			credits := cfg.Profile.RDMAClient.Credits
			if credits <= 0 {
				credits = 32
			}
			cfg.SRQDepth = clients * credits / opts.Shards
		}
		return runCapacityPoint(cfg, opts.AggregateOfferedMBps[c[3]], 400*time.Millisecond, scale, opts.TelemetryInterval)
	})
	for i := range pts {
		r := results[i]
		out.Points = append(out.Points, r)
		mode := "per-conn"
		if r.Multiplex {
			mode = "mux"
		}
		out.Curves.AddRow(r.Clients, mode, r.Design.String(), r.OfferedMBps, r.AchievedMBps,
			r.P50, r.P99, r.ServerCPUPct, r.Dropped, r.ServerMigrations, r.ServerLocalWakes)
	}
	// Memory rows: one per client count, from the first-load Read-Write
	// point of each mode (receive-side state does not depend on load).
	loads := len(opts.AggregateOfferedMBps)
	idx := func(ci, mode, di, li int) int {
		return ((ci*len(modes)+mode)*len(allDesigns)+di)*loads + li
	}
	for ci, n := range opts.ClientCounts {
		perConn := out.Points[idx(ci, 0, 1, 0)]
		mux := out.Points[idx(ci, 1, 1, 0)]
		saving := "-"
		if mux.ServerRecvStateBytes > 0 {
			saving = fmt.Sprintf("%.1fx", float64(perConn.ServerRecvStateBytes)/float64(mux.ServerRecvStateBytes))
		}
		out.Memory.AddRow(n, perConn.ServerRecvStateBytes, mux.ServerRecvStateBytes, saving,
			mux.Endpoints, mux.MuxSlots)
	}
	return out
}
