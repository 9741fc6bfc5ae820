package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiments/runner"
	"repro/internal/memreg"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// CapacityPoint is one open-loop measurement, of either capacity sweep or of
// nfsrdma-bench -openloop: the cluster it ran on, what the generator measured
// there, and the server transport's shard-path evidence.
type CapacityPoint struct {
	Clients   int
	Multiplex bool
	Design    rpcrdma.Design

	workload.OpenLoopResult

	// Shard-path evidence aggregated over the server's shards. Endpoints and
	// MuxSlots are the shared-QP population (multiplexed mode only).
	SRQStarved     int64
	SRQLimitEvents int64
	MaxQueueDepth  int
	Endpoints      int
	MuxSlots       int

	// Telemetry is the point's time-series report with detector findings
	// (knee onset, starvation windows, SLO burn); nil unless telemetry was
	// enabled on the cluster.
	Telemetry *telemetry.Report
}

// Capacity is the scale-out capacity sweep result: the full
// throughput-vs-latency curves plus a per-(clients, design) saturation-knee
// summary.
type Capacity struct {
	Points []CapacityPoint
	Curves *stats.Table
	Knee   *stats.Table
}

// CapacityOptions tunes a capacity sweep; the zero value reproduces the
// sweep's default grid.
type CapacityOptions struct {
	// ClientCounts is the set of concurrent client hosts (default
	// {8, 32, 128, 512}; mux sweep {512, 2048, 10240} — past the point where
	// per-connection receive state dominates server memory).
	ClientCounts []int

	// AggregateOfferedMBps is the rising offered-load axis, aggregate
	// across all clients (default {300, 600, 1200, 2400}, mux sweep
	// {600, 1200} — straddling the server stack's ~900 MB/s ceiling so every
	// client count crosses its knee).
	AggregateOfferedMBps []float64

	// Shards is the server transport's dispatch shard count (default 8).
	Shards int

	// Seed derives the cluster and every client's arrival process.
	Seed uint64

	// TelemetryInterval enables per-point virtual-time sampling at this
	// period and runs the series detectors on each point (zero disables).
	TelemetryInterval des.Duration
}

func (o *CapacityOptions) defaults(clients []int, loads []float64) {
	if len(o.ClientCounts) == 0 {
		o.ClientCounts = clients
	}
	if len(o.AggregateOfferedMBps) == 0 {
		o.AggregateOfferedMBps = loads
	}
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Saturation-knee definition. A point is past the knee when raising offered
// load stops buying throughput: the achieved gain over the previous load is
// below kneeGainRatio of the offered increment while achieved already sits
// within kneePeakRatio of the curve's maximum (the second condition rejects
// low-load measurement-window artifacts). saturationRatio is the coarser
// per-point check — achieved below this fraction of offered means the
// server is shedding the difference.
const (
	kneeGainRatio   = 0.5
	kneePeakRatio   = 0.8
	saturationRatio = 0.9
)

// RunCapacity sweeps client count × offered load for all three transfer designs
// on the DDR multi-client testbed (RAID-0 + page cache backend) with the
// sharded SRQ server path, producing throughput-vs-p99 curves and a
// saturation-knee summary. An open-loop generator (workload.RunOpenLoop)
// keeps offering load past the knee, which is what exposes it: a
// closed-loop client would slow down to match capacity and the curve would
// never bend.
func RunCapacity(scale Scale) *Capacity {
	return RunCapacityWith(scale, CapacityOptions{})
}

// RunCapacityWith is RunCapacity with an explicit grid.
func RunCapacityWith(scale Scale, opts CapacityOptions) *Capacity {
	opts.defaults([]int{8, 32, 128, 512}, []float64{300, 600, 1200, 2400})
	out := &Capacity{
		Curves: stats.NewTable("Capacity: open-loop offered load vs achieved throughput and latency, Linux DDR profile, RAID-0 + page cache, sharded SRQ server",
			"clients", "design", "offered MB/s", "achieved MB/s", "p50 µs", "p99 µs", "srv CPU%", "issued", "dropped", "srq starved", "maxQ"),
		Knee: stats.NewTable("Capacity: saturation knee per client count (first offered load whose achieved gain falls below half the offered increment)",
			"clients", "design", "knee MB/s", "peak MB/s", "p99@peak µs"),
	}
	pts := runner.Grid(len(opts.ClientCounts), len(allDesigns), len(opts.AggregateOfferedMBps))
	results := pmap(len(pts), func(i int) CapacityPoint {
		c := pts[i]
		return runCapacityPoint(capacityConfig(opts.ClientCounts[c[0]], allDesigns[c[1]], opts),
			opts.AggregateOfferedMBps[c[2]], 800*time.Millisecond, scale, opts.TelemetryInterval)
	})
	for i := range pts {
		r := results[i]
		out.Points = append(out.Points, r)
		out.Curves.AddRow(r.Clients, r.Design.String(), r.OfferedMBps, r.AchievedMBps,
			r.P50, r.P99, r.ServerCPUPct, r.Issued, r.Dropped, r.SRQStarved, r.MaxQueueDepth)
	}
	// Knee summary: points arrive in row-major grid order, so each
	// (clients, design) group is a contiguous run over the load axis.
	loads := len(opts.AggregateOfferedMBps)
	for g := 0; g+loads <= len(out.Points); g += loads {
		run := out.Points[g : g+loads]
		peak := run[0]
		for _, r := range run {
			if r.AchievedMBps > peak.AchievedMBps {
				peak = r
			}
		}
		knee := "-"
		for i := 1; i < len(run); i++ {
			gain := run[i].AchievedMBps - run[i-1].AchievedMBps
			step := run[i].OfferedMBps - run[i-1].OfferedMBps
			if gain < kneeGainRatio*step && run[i].AchievedMBps >= kneePeakRatio*peak.AchievedMBps {
				knee = fmt.Sprintf("%.0f", run[i].OfferedMBps)
				break
			}
		}
		out.Knee.AddRow(run[0].Clients, run[0].Design.String(), knee,
			peak.AchievedMBps, peak.P99)
	}
	return out
}

// capacityConfig is the cluster both capacity sweeps measure: the DDR
// multi-client testbed (RAID-0 + page cache) behind the sharded SRQ server
// path, all-physical registration, admission sized to the population.
func capacityConfig(clients int, design rpcrdma.Design, opts CapacityOptions) core.Config {
	prof := profiles.LinuxDDR()
	// RR parks every reply until the client's DONE; at hundreds of clients
	// the default pool would throttle long before the stack ceiling, so
	// scale it with the connection count. Workers likewise: each shard
	// needs a few to keep its slice of connections busy.
	prof.RDMAServer.ReplyBufPool = 4 * clients
	prof.RDMAServer.Workers = max(prof.RDMAServer.Workers, 4*opts.Shards)
	return core.Config{
		Profile:      prof,
		Transport:    core.TransportRDMA,
		Design:       design,
		RegMode:      memreg.AllPhysical,
		Clients:      clients,
		Backend:      core.BackendDisk,
		ServerShards: opts.Shards,
		MaxConns:     clients,
		Seed:         opts.Seed,
	}
}

// runCapacityPoint measures one sweep point on cfg's cluster: 64 KiB reads
// of a scale-sized file for the scaled window (never below 1/80 of the full
// one). A point that cannot run is a bug in the sweep, so it panics.
func runCapacityPoint(cfg core.Config, aggMBps float64, window des.Duration, scale Scale, telemetryInterval des.Duration) CapacityPoint {
	const recSize = 64 << 10
	var prepare func(*core.Cluster)
	if telemetryInterval > 0 {
		prepare = func(c *core.Cluster) { c.EnableTelemetry(telemetry.Options{Interval: telemetryInterval}) }
	}
	pt, _, err := RunOpenLoop(cfg, aggMBps, workload.OpenLoopConfig{
		RecordSize:     recSize,
		FileSize:       max(scale.div64(4<<20), recSize),
		Duration:       max(des.Duration(scale.div64(int64(window))), window/80),
		MaxOutstanding: 32,
		Seed:           cfg.Seed,
	}, prepare)
	if err != nil {
		panic(fmt.Sprintf("capacity: open-loop run failed: %v", err))
	}
	return pt
}

// RunOpenLoop builds cfg's cluster, offers it aggMBps in aggregate through
// the open-loop generator and returns the measured point with the finished
// cluster. prepare, if not nil, sees the cluster before it runs (to enable
// telemetry on it).
func RunOpenLoop(cfg core.Config, aggMBps float64, ol workload.OpenLoopConfig, prepare func(*core.Cluster)) (CapacityPoint, *core.Cluster, error) {
	cluster := core.NewCluster(cfg)
	if prepare != nil {
		prepare(cluster)
	}
	clients := len(cluster.Clients)
	ol.OfferedPerClientBps = aggMBps * 1e6 / float64(clients)
	pt := CapacityPoint{Clients: clients, Multiplex: cfg.Multiplex, Design: cfg.Design}
	var err error
	cluster.Start("openloop-driver", func(p *des.Proc) {
		if pt.OpenLoopResult, err = workload.RunOpenLoop(p, cluster, ol); err != nil {
			return
		}
		if rdma := cluster.Server.RDMA; rdma != nil {
			for _, s := range rdma.ShardStats() {
				pt.SRQStarved += s.SRQStarved
				pt.SRQLimitEvents += s.SRQLimitEvents
				pt.MaxQueueDepth = max(pt.MaxQueueDepth, s.MaxQueueDepth)
				pt.Endpoints += s.Endpoints
				pt.MuxSlots += s.MuxSlots
			}
		}
		pt.Telemetry = cluster.TelemetryReport()
	})
	cluster.Run()
	return pt, cluster, err
}
