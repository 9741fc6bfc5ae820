package core

import (
	"fmt"

	"repro/internal/nfs3"
	"repro/internal/rpcrdma"
	"repro/internal/telemetry"
)

// EnableTelemetry attaches a virtual-time sampling engine to the cluster and
// registers probes from every layer. Server-side probes read live state
// through the cluster pointer (not captured objects), so they keep working
// across a crash/restart that replaces Server.RDMA; client-side ones read
// Totals, which follow a reconnect that replaces a client's transport.
// Idempotent: a second call returns the existing engine. Workloads
// start/stop the sampler around their measurement window.
func (c *Cluster) EnableTelemetry(opts telemetry.Options) *telemetry.Engine {
	if c.tel != nil {
		return c.tel
	}
	e := telemetry.New(c.Sim, opts)
	c.tel = e

	srv := c.Server
	tot := &c.Totals
	cores := float64(srv.Node.CPU.Cores())

	// A probe is a cell read: a cluster total kept at its mutation site
	// (Totals), or a value the owning layer already keeps in O(1) or
	// O(shards). A probe that walks the clients is a defect — one tick must
	// cost the same at 8 clients and at 10 240.
	cell := func(v *int64) func() float64 {
		return func() float64 { return float64(*v) }
	}
	// up gates a gauge of live server-transport state: zero while the server
	// is crashed (the old transport object still holds its last values).
	up := func(read func(*rpcrdma.ServerTransport) int) func() float64 {
		return func() float64 {
			if c.serverDown || srv.RDMA == nil {
				return 0
			}
			return float64(read(srv.RDMA))
		}
	}
	// ever reads a cumulative server-transport counter, crashed or not.
	ever := func(read func(*rpcrdma.ServerTransport) int64) func() float64 {
		return func() float64 {
			if srv.RDMA == nil {
				return 0
			}
			return float64(read(srv.RDMA))
		}
	}

	type row struct {
		name  string
		kind  telemetry.Kind
		probe func() float64
	}
	// Registration order is the column order of every exported report.
	rows := []row{
		// ibsim: receive-pool and memory-exposure state. SRQ totals are zero
		// for unsharded designs; MR exposure tracks the registered-bytes
		// attack surface the paper's registration modes trade off.
		{"ibsim.srq_avail", telemetry.Gauge, up((*rpcrdma.ServerTransport).SRQAvailTotal)},
		{"ibsim.srq_posted", telemetry.Rate, ever((*rpcrdma.ServerTransport).SRQPostedTotal)},
		{"ibsim.srq_starved", telemetry.Rate, ever((*rpcrdma.ServerTransport).SRQStarvedTotal)},
		{"ibsim.mux_endpoints", telemetry.Gauge, up((*rpcrdma.ServerTransport).MuxEndpointsTotal)},
	}
	for i := 0; i < c.Cfg.ServerShards; i++ {
		shard := i
		rows = append(rows, row{fmt.Sprintf("ibsim.shard%d.endpoints", shard), telemetry.Gauge,
			up(func(t *rpcrdma.ServerTransport) int { return t.ShardEndpoints(shard) })})
	}
	rows = append(rows,
		row{"ibsim.mr_exposed_bytes", telemetry.Gauge, func() float64 { return float64(srv.Node.HCA.RemoteExposedBytes()) }},

		// rpcrdma: credit state summed over the installed client transports,
		// plus the server's dispatch counters.
		row{"rpcrdma.inflight", telemetry.Gauge, cell(&tot.RDMA.Outstanding)},
		row{"rpcrdma.credit_occupancy", telemetry.Gauge, func() float64 {
			if tot.RDMA.Granted == 0 {
				return 0
			}
			return float64(tot.RDMA.Outstanding) / float64(tot.RDMA.Granted)
		}},
		row{"rpcrdma.parked_replies", telemetry.Gauge, up((*rpcrdma.ServerTransport).ParkedReplies)},
		row{"rpcrdma.live_conns", telemetry.Gauge, up((*rpcrdma.ServerTransport).LiveConns)},
		row{"rpcrdma.requests", telemetry.Rate, ever(func(t *rpcrdma.ServerTransport) int64 { return t.Requests })},
		row{"rpcrdma.retransmits", telemetry.Rate, cell(&tot.RDMA.Retransmits)},
		row{"rpcrdma.timeouts", telemetry.Rate, cell(&tot.RDMA.Timeouts)},

		// oncrpc: duplicate request cache occupancy and effectiveness.
		row{"oncrpc.drc_entries", telemetry.Gauge, func() float64 { return float64(srv.Dispatcher.DRCEntries()) }},
		row{"oncrpc.drc_hits", telemetry.Rate, func() float64 { h, _ := srv.Dispatcher.DRCStats(); return float64(h) }},
		row{"oncrpc.drc_misses", telemetry.Rate, func() float64 { _, m := srv.Dispatcher.DRCStats(); return float64(m) }},
	)
	// nfs3: per-procedure op rates (null..commit).
	for proc := uint32(0); proc <= nfs3.ProcCommit; proc++ {
		rows = append(rows, row{"nfs3." + nfs3.ProcName(proc) + "_ops", telemetry.Rate, cell(&srv.NFS.Ops[proc])})
	}
	rows = append(rows,
		// cpu: the server's scheduler. Utilization is a rate over cumulative
		// busy-seconds, so it survives the measurement-window resets
		// workloads issue; d(core-seconds)/dt over core count is the
		// windowed fraction.
		row{"cpu.utilization", telemetry.Rate, func() float64 { return srv.Node.CPU.TotalBusySeconds() / cores }},
		row{"cpu.migrations", telemetry.Rate, func() float64 { return float64(srv.Node.CPU.Migrations()) }},
		row{"cpu.local_wakes", telemetry.Rate, func() float64 { return float64(srv.Node.CPU.LocalWakes()) }},

		// core: client-cache effectiveness, recovery traffic, crash count.
		row{"core.attr_hits", telemetry.Rate, cell(&tot.AttrHits)},
		row{"core.attr_misses", telemetry.Rate, cell(&tot.AttrMisses)},
		row{"core.data_hits", telemetry.Rate, cell(&tot.DataHits)},
		row{"core.data_misses", telemetry.Rate, cell(&tot.DataMisses)},
		row{"core.reconnects", telemetry.Rate, cell(&tot.Reconnects)},
		row{"core.crashes", telemetry.Gauge, cell(&c.Crashes)},
	)
	// vfs: server page cache, when configured.
	if srv.Cache != nil {
		rows = append(rows,
			row{"vfs.pagecache_hits", telemetry.Rate, cell(&srv.Cache.Hits)},
			row{"vfs.pagecache_misses", telemetry.Rate, cell(&srv.Cache.Misses)})
	}
	for _, r := range rows {
		if r.kind == telemetry.Rate {
			e.Counter(r.name, r.probe)
		} else {
			e.Gauge(r.name, r.probe)
		}
	}
	return e
}

// Telemetry returns the cluster's engine, nil (the disabled engine) when
// EnableTelemetry was never called.
func (c *Cluster) Telemetry() *telemetry.Engine { return c.tel }

// SLOBudgetUS is the p99 latency budget the standard SLO-burn detector
// judges runs against: 1ms, comfortably above healthy service latency and
// well below the post-knee queueing regime.
const SLOBudgetUS = 1000

// TelemetryReport snapshots the cluster's telemetry into a report and runs
// the standard detectors over the conventional series names (knee onset and
// SLO burn on the open-loop latency window, credit- and SRQ-starvation
// windows). Returns nil when telemetry was never enabled.
func (c *Cluster) TelemetryReport() *telemetry.Report {
	if c.tel == nil {
		return nil
	}
	r := c.tel.Report()
	if f, ok := r.DetectKneeOnset("workload.lat.p99_us", "workload.inflight"); ok {
		r.Findings = append(r.Findings, f)
	}
	r.Findings = append(r.Findings, r.DetectAboveThreshold(
		"credit-starve", "rpcrdma.credit_occupancy", 0.95, 3)...)
	r.Findings = append(r.Findings, r.DetectAboveThreshold(
		"srq-starve", "ibsim.srq_starved", 1, 1)...)
	if f, ok := r.DetectSLOBurn("workload.lat.p99_us", SLOBudgetUS); ok {
		r.Findings = append(r.Findings, f)
	}
	return r
}
