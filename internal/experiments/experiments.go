// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated testbeds. Each FigureN function runs the
// corresponding parameter sweep and returns both structured series (for
// assertions in benchmarks/tests) and formatted tables mirroring the
// paper's axes.
//
// Sweep points are independent simulations (each builds its own des.Sim,
// fabric, and RNGs from the point's configuration alone), so every FigureN
// fans its points out across the machine's cores through
// internal/experiments/runner. Results are keyed by point index, never by
// completion order: a sweep run sequentially and one run on 64 workers
// produce byte-identical structured results and tables. SetParallelism
// pins the worker count (1 forces the sequential reference path).
package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiments/runner"
	"repro/internal/memreg"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Scale divides the workload sizes to trade fidelity for wall-clock speed:
// 1 reproduces the paper's sizes exactly; tests use larger divisors.
type Scale int

func (s Scale) div64(v int64) int64 {
	if s <= 1 {
		return v
	}
	return v / int64(s)
}

// sweepWorkers overrides the sweep worker count; 0 means one per core.
var sweepWorkers atomic.Int64

// SetParallelism pins the number of concurrent simulations per sweep.
// n <= 0 restores the default (one worker per core); n == 1 forces the
// sequential reference path. Results are identical either way — only
// wall-clock time changes.
func SetParallelism(n int) { sweepWorkers.Store(int64(n)) }

// Parallelism reports the effective sweep worker count.
func Parallelism() int {
	if w := int(sweepWorkers.Load()); w > 0 {
		return w
	}
	return runner.Workers()
}

// pmap fans fn across the configured number of sweep workers.
func pmap[T any](n int, fn func(i int) T) []T {
	return runner.MapWorkers(Parallelism(), n, fn)
}

// allDesigns is the design axis of every sweep that compares the three
// transfer designs.
var allDesigns = []rpcrdma.Design{rpcrdma.ReadRead, rpcrdma.ReadWrite, rpcrdma.ReplyFetch}

// IOzonePoint is one measured IOzone configuration.
type IOzonePoint struct {
	Threads    int
	RecordSize int
	Design     rpcrdma.Design
	Mode       memreg.Mode
	Result     workload.IOzoneResult
}

// RunIOzone builds cfg's cluster, runs one IOzone configuration on it and
// returns the result with the finished cluster, whose counters callers read.
// prepare, if not nil, sees the cluster before it runs (to attach a tracer
// or start a process beside the workload).
func RunIOzone(cfg core.Config, io workload.IOzoneConfig, prepare func(*core.Cluster)) (workload.IOzoneResult, *core.Cluster, error) {
	cluster := core.NewCluster(cfg)
	if prepare != nil {
		prepare(cluster)
	}
	var res workload.IOzoneResult
	var err error
	cluster.Start("iozone-driver", func(p *des.Proc) {
		res, err = workload.RunIOzone(p, cluster, io)
	})
	cluster.Run()
	return res, cluster, err
}

// runIOzone is RunIOzone for a sweep point, which cannot fail to run except
// by a bug in the sweep: an error panics.
func runIOzone(cfg core.Config, io workload.IOzoneConfig) (workload.IOzoneResult, *core.Cluster) {
	res, cluster, err := RunIOzone(cfg, io, nil)
	if err != nil {
		panic(fmt.Sprintf("experiments: iozone run failed: %v", err))
	}
	return res, cluster
}

// Figure5and6 reproduces Figs. 5 and 6: IOzone READ and WRITE bandwidth
// with direct I/O on the OpenSolaris testbed, Read-Read vs Read-Write,
// record sizes 128 KiB and 1 MiB, 1-8 threads, plus client CPU utilization.
type Figure5and6 struct {
	Points []IOzonePoint
	Read   *stats.Table // Fig. 5
	Write  *stats.Table // Fig. 6
	CPU    *stats.Table // client CPU (read phase)
}

// RunFigure5and6 executes the sweep.
func RunFigure5and6(scale Scale) *Figure5and6 {
	out := &Figure5and6{
		Read:  stats.NewTable("Figure 5: IOzone Read bandwidth, Solaris tmpfs, direct I/O (MB/s)", "threads", "RR-128K", "RW-128K", "RR-1M", "RW-1M"),
		Write: stats.NewTable("Figure 6: IOzone Write bandwidth, Solaris tmpfs, direct I/O (MB/s)", "threads", "RR-128K", "RW-128K", "RR-1M", "RW-1M"),
		CPU:   stats.NewTable("Figures 5/6: client CPU utilization, read phase (%)", "threads", "Read-Read", "Read-Write"),
	}
	fileSize := scale.div64(128 << 20)
	records := []int{128 << 10, 1 << 20}
	designs := []rpcrdma.Design{rpcrdma.ReadRead, rpcrdma.ReadWrite}
	pts := runner.Grid(8, len(records), len(designs))
	results := pmap(len(pts), func(i int) workload.IOzoneResult {
		c := pts[i]
		res, _ := runIOzone(core.Config{
			Profile:   profiles.SolarisSDR(),
			Transport: core.TransportRDMA,
			Design:    designs[c[2]],
			RegMode:   memreg.Regular,
		}, workload.IOzoneConfig{
			Threads: c[0] + 1, FileSize: fileSize, RecordSize: records[c[1]], DirectIO: true,
		})
		return res
	})
	for i, c := range pts {
		out.Points = append(out.Points, IOzonePoint{
			Threads: c[0] + 1, RecordSize: records[c[1]], Design: designs[c[2]],
			Mode: memreg.Regular, Result: results[i],
		})
	}
	// Row assembly: point index for (threads t, record r, design d).
	at := func(t, r, d int) workload.IOzoneResult {
		return results[((t-1)*len(records)+r)*len(designs)+d]
	}
	for t := 1; t <= 8; t++ {
		out.Read.AddRow(t,
			at(t, 0, 0).Read.MBps, at(t, 0, 1).Read.MBps,
			at(t, 1, 0).Read.MBps, at(t, 1, 1).Read.MBps)
		out.Write.AddRow(t,
			at(t, 0, 0).Write.MBps, at(t, 0, 1).Write.MBps,
			at(t, 1, 0).Write.MBps, at(t, 1, 1).Write.MBps)
		out.CPU.AddRow(t, at(t, 0, 0).Read.ClientCPUPct, at(t, 0, 1).Read.ClientCPUPct)
	}
	return out
}

// Figure7 reproduces Fig. 7: IOzone bandwidth under the registration
// strategies on Solaris (Read-Write design, 128 KiB records, buffered
// client I/O so the client-side arena participates in the strategy).
type Figure7 struct {
	Points []IOzonePoint
	Read   *stats.Table
	Write  *stats.Table
	CPU    *stats.Table
}

// RunFigure7 executes the sweep.
func RunFigure7(scale Scale) *Figure7 {
	out := &Figure7{
		Read:  stats.NewTable("Figure 7a: IOzone Read bandwidth by registration strategy, Solaris (MB/s)", "threads", "Register", "FMR", "Cache"),
		Write: stats.NewTable("Figure 7b: IOzone Write bandwidth by registration strategy, Solaris (MB/s)", "threads", "Register", "FMR", "Cache"),
		CPU:   stats.NewTable("Figure 7: client CPU utilization, read phase (%)", "threads", "Register", "FMR", "Cache"),
	}
	modes := []memreg.Mode{memreg.Regular, memreg.FMR, memreg.Cache}
	out.Points = regStrategySweep(scale, profiles.SolarisSDR, modes, out.Read, out.Write, out.CPU)
	return out
}

// regStrategySweep runs the shared Figure 7/9 shape: threads 1-8 ×
// registration modes, Read-Write design, 128 KiB records, one testbed
// profile. It fills the three tables and returns the point list.
func regStrategySweep(scale Scale, profile func() profiles.Profile, modes []memreg.Mode, read, write, cpu *stats.Table) []IOzonePoint {
	fileSize := scale.div64(128 << 20)
	pts := runner.Grid(8, len(modes))
	results := pmap(len(pts), func(i int) workload.IOzoneResult {
		c := pts[i]
		res, _ := runIOzone(core.Config{
			Profile:   profile(),
			Transport: core.TransportRDMA,
			Design:    rpcrdma.ReadWrite,
			RegMode:   modes[c[1]],
		}, workload.IOzoneConfig{
			Threads: c[0] + 1, FileSize: fileSize, RecordSize: 128 << 10,
		})
		return res
	})
	points := make([]IOzonePoint, 0, len(pts))
	for i, c := range pts {
		points = append(points, IOzonePoint{
			Threads: c[0] + 1, RecordSize: 128 << 10,
			Design: rpcrdma.ReadWrite, Mode: modes[c[1]], Result: results[i],
		})
	}
	for t := 1; t <= 8; t++ {
		row := make([]any, 0, len(modes)+1)
		row = append(row, t)
		for m := range modes {
			row = append(row, results[(t-1)*len(modes)+m].Read.MBps)
		}
		read.AddRow(row...)
		row = row[:1]
		for m := range modes {
			row = append(row, results[(t-1)*len(modes)+m].Write.MBps)
		}
		write.AddRow(row...)
		row = row[:1]
		for m := range modes {
			row = append(row, results[(t-1)*len(modes)+m].Read.ClientCPUPct)
		}
		cpu.AddRow(row...)
	}
	return points
}

// Figure8 reproduces Fig. 8: the FileBench-style OLTP workload (mean I/O
// 128 KiB) under the registration schemes, throughput (ops/s) and client
// CPU µs/op versus number of readers.
type Figure8 struct {
	Table  *stats.Table
	Series map[memreg.Mode][]OLTPPoint
}

// OLTPPoint is one OLTP measurement.
type OLTPPoint struct {
	Readers int
	Mode    memreg.Mode
	Result  workload.OLTPResult
}

// RunFigure8 executes the sweep.
func RunFigure8(scale Scale) *Figure8 {
	out := &Figure8{
		Table:  stats.NewTable("Figure 8: FileBench OLTP (mean I/O 128 KiB), Solaris", "readers", "Register ops/s", "FMR ops/s", "Cache ops/s", "Register uscpu/op", "Cache uscpu/op"),
		Series: map[memreg.Mode][]OLTPPoint{},
	}
	duration := 2 * time.Second
	if scale > 1 {
		duration = time.Duration(int64(duration) / int64(scale))
	}
	readerCounts := []int{50, 100, 150, 200}
	modes := []memreg.Mode{memreg.Regular, memreg.FMR, memreg.Cache}
	pts := runner.Grid(len(readerCounts), len(modes))
	results := pmap(len(pts), func(i int) workload.OLTPResult {
		c := pts[i]
		readers := readerCounts[c[0]]
		cluster := core.NewCluster(core.Config{
			Profile:   profiles.SolarisSDR(),
			Transport: core.TransportRDMA,
			Design:    rpcrdma.ReadWrite,
			RegMode:   modes[c[1]],
		})
		var res workload.OLTPResult
		var err error
		cluster.Start("oltp-driver", func(p *des.Proc) {
			res, err = workload.RunOLTP(p, cluster, workload.OLTPConfig{
				Readers: readers, Writers: readers / 10, MeanIO: 128 << 10,
				FileSize: scale.div64(512 << 20), Duration: duration, Seed: uint64(readers),
			})
		})
		cluster.Run()
		if err != nil {
			panic(fmt.Sprintf("experiments: oltp failed: %v", err))
		}
		return res
	})
	at := func(r, m int) workload.OLTPResult { return results[r*len(modes)+m] }
	for ri, readers := range readerCounts {
		for mi, mode := range modes {
			out.Series[mode] = append(out.Series[mode], OLTPPoint{Readers: readers, Mode: mode, Result: at(ri, mi)})
		}
		out.Table.AddRow(readers,
			at(ri, 0).OpsPerSec, at(ri, 1).OpsPerSec, at(ri, 2).OpsPerSec,
			at(ri, 0).ClientUSPerOp, at(ri, 2).ClientUSPerOp)
	}
	return out
}

// Figure9 reproduces Fig. 9: registration strategies on the Linux port —
// all-physical yields the best READ throughput but degrades WRITE through
// physical fragmentation hitting the IRD/ORD limit.
type Figure9 struct {
	Points []IOzonePoint
	Read   *stats.Table
	Write  *stats.Table
	CPU    *stats.Table
}

// RunFigure9 executes the sweep.
func RunFigure9(scale Scale) *Figure9 {
	out := &Figure9{
		Read:  stats.NewTable("Figure 9a: IOzone Read bandwidth by registration strategy, Linux (MB/s)", "threads", "Register", "FMR", "All-Physical"),
		Write: stats.NewTable("Figure 9b: IOzone Write bandwidth by registration strategy, Linux (MB/s)", "threads", "Register", "FMR", "All-Physical"),
		CPU:   stats.NewTable("Figure 9: client CPU utilization, read phase (%)", "threads", "Register", "FMR", "All-Physical"),
	}
	modes := []memreg.Mode{memreg.Regular, memreg.FMR, memreg.AllPhysical}
	out.Points = regStrategySweep(scale, profiles.LinuxSDR, modes, out.Read, out.Write, out.CPU)
	return out
}

// Figure10 reproduces Fig. 10: multi-client aggregate read bandwidth with
// the RAID-0 back end, RDMA vs NFS/TCP on IPoIB and GigE, server page cache
// of 4 GB (a) and 8 GB (b).
type Figure10 struct {
	Table  *stats.Table
	Series map[core.Transport][]MultiClientPoint
}

// MultiClientPoint is one multi-client measurement.
type MultiClientPoint struct {
	Clients   int
	Transport core.Transport
	Result    workload.MultiClientResult
}

// RunFigure10 executes one server-memory configuration. serverMemBytes is
// the machine's RAM; roughly 1 GB goes to the kernel and daemons, the rest
// to the page cache.
func RunFigure10(scale Scale, serverMemBytes int64, maxClients int) *Figure10 {
	out := &Figure10{
		Table: stats.NewTable(
			fmt.Sprintf("Figure 10 (%d GB server): multi-client IOzone aggregate Read bandwidth (MB/s)", serverMemBytes>>30),
			"clients", "RDMA", "IPoIB", "GigE"),
		Series: map[core.Transport][]MultiClientPoint{},
	}
	cacheBytes := scale.div64(serverMemBytes - 1<<30)
	fileSize := scale.div64(1 << 30)
	transports := []core.Transport{core.TransportRDMA, core.TransportIPoIB, core.TransportGigE}
	pts := runner.Grid(maxClients, len(transports))
	results := pmap(len(pts), func(i int) workload.MultiClientResult {
		c := pts[i]
		cluster := core.NewCluster(core.Config{
			Profile:        profiles.LinuxDDR(),
			Transport:      transports[c[1]],
			Design:         rpcrdma.ReadWrite,
			RegMode:        memreg.AllPhysical,
			Clients:        c[0] + 1,
			Backend:        core.BackendDisk,
			PageCacheBytes: cacheBytes,
		})
		var res workload.MultiClientResult
		var err error
		cluster.Start("multiclient-driver", func(p *des.Proc) {
			res, err = workload.RunMultiClient(p, cluster, workload.MultiClientConfig{
				FileSize: fileSize, RecordSize: 1 << 20,
			})
		})
		cluster.Run()
		if err != nil {
			panic(fmt.Sprintf("experiments: multiclient failed: %v", err))
		}
		return res
	})
	at := func(cl, tr int) workload.MultiClientResult { return results[(cl-1)*len(transports)+tr] }
	for clients := 1; clients <= maxClients; clients++ {
		for ti, tr := range transports {
			out.Series[tr] = append(out.Series[tr], MultiClientPoint{Clients: clients, Transport: tr, Result: at(clients, ti)})
		}
		out.Table.AddRow(clients,
			at(clients, 0).AggregateReadMBps,
			at(clients, 1).AggregateReadMBps,
			at(clients, 2).AggregateReadMBps)
	}
	return out
}

// Table1 renders the communication-primitive property matrix, verified by
// the fabric's semantic tests (internal/ibsim).
func Table1() *stats.Table {
	t := stats.NewTable("Table 1: Communication primitive properties",
		"property", "Channel (Send/Recv)", "Memory (RDMA R/W)")
	t.AddRow("Receive buffer exposed", "no", "yes")
	t.AddRow("Receive buffer pre-posted", "yes", "no")
	t.AddRow("Steering tag", "no", "yes")
	t.AddRow("Rendezvous (addr+stag exchange)", "no", "yes")
	return t
}
