package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/memreg"
	"repro/internal/nfs3"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Figure4 is the latency-anatomy experiment: one fully traced cluster
// running a mixed workload (bulk IOzone direct I/O plus a metadata-heavy
// small-op mix), reported as per-procedure NFS latency distributions and
// transport-internal latency histograms. The paper's Fig. 4 shows the
// RPC/RDMA exchange structure; this experiment measures where the time in
// that exchange actually goes, layer by layer.
type Figure4 struct {
	PerProc   *stats.Table // per-NFS-procedure latency quantiles
	Transport *stats.Table // transport-internal histograms (CQ delivery, registration, ...)
	Counters  *stats.Table // transport fault/overflow counters

	// Tracer holds the structured event stream of the run, for Chrome
	// trace-event export and invariant checking by the caller.
	Tracer *trace.Tracer
}

// figure4TraceCapacity keeps the whole run (not just the tail) in the ring,
// so exported traces show every layer from time zero.
const figure4TraceCapacity = 1 << 20

// RunFigure4 runs the single traced cluster with the paper's Read-Write
// design. Unlike the sweep figures this is one simulation, so it always
// runs sequentially regardless of the configured parallelism.
func RunFigure4(scale Scale) *Figure4 {
	return RunFigure4Design(scale, rpcrdma.ReadWrite)
}

// RunFigure4Design is the latency anatomy under an explicit transfer
// design, so the three designs' exchange structures (server Send vs
// client pull vs doorbell fetch) can be compared layer by layer.
func RunFigure4Design(scale Scale, design rpcrdma.Design) *Figure4 {
	cluster := core.NewCluster(core.Config{
		Profile:   profiles.SolarisSDR(),
		Transport: core.TransportRDMA,
		Design:    design,
		RegMode:   memreg.Regular,
	})
	tr := cluster.EnableTracing(figure4TraceCapacity)
	cl := cluster.Clients[0]

	cluster.Start("figure4-driver", func(p *des.Proc) {
		cl.NFS.EnableLatencyStats(cluster.Sim)
		if _, err := workload.RunIOzone(p, cluster, workload.IOzoneConfig{
			Threads: 2, FileSize: scale.div64(16 << 20), RecordSize: 128 << 10, DirectIO: true,
		}); err != nil {
			panic(fmt.Sprintf("experiments: figure4 iozone: %v", err))
		}
		ops := int(scale.div64(400))
		if ops < 50 {
			ops = 50
		}
		if _, err := workload.RunMetadata(p, cluster, workload.MetadataConfig{
			Threads: 2, Dirs: 4, Files: 16, Ops: ops, UseCache: true, Seed: 4,
		}); err != nil {
			panic(fmt.Sprintf("experiments: figure4 metadata: %v", err))
		}
	})
	cluster.Run()

	out := &Figure4{
		PerProc: stats.NewTable(fmt.Sprintf("Figure 4: per-procedure NFS latency, Solaris, %s, Regular registration (µs)", design),
			"procedure", "count", "mean", "p50", "p95", "p99", "max"),
		Transport: stats.NewTable(fmt.Sprintf("Figure 4: transport-internal latency histograms, %s (µs)", design),
			"histogram", "count", "mean", "p50", "p95", "p99", "max"),
		Counters: stats.NewTable(fmt.Sprintf("Figure 4: transport counters, %s", design),
			"counter", "value"),
		Tracer: tr,
	}
	for proc := uint32(0); proc < 22; proc++ {
		h := cl.NFS.Latency(proc)
		if h == nil || h.Count() == 0 {
			continue
		}
		out.PerProc.AddRow(nfs3.ProcName(proc), h.Count(), h.Mean(),
			h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max())
	}
	for _, nh := range tr.Histograms() {
		out.Transport.AddRow(nh.Name, nh.Hist.Count(), nh.Hist.Mean(),
			nh.Hist.Quantile(0.50), nh.Hist.Quantile(0.95), nh.Hist.Quantile(0.99), nh.Hist.Max())
	}
	timeouts, _ := cl.TransportStats()
	out.Counters.AddRow("client timeouts", timeouts)
	out.Counters.AddRow("server short writes", cluster.Server.RDMA.ShortWrites)
	out.Counters.AddRow("server deposits", cluster.Server.RDMA.Deposits)
	out.Counters.AddRow("trace events kept", out.Tracer.Len())
	out.Counters.AddRow("trace events dropped", out.Tracer.Dropped())
	return out
}
