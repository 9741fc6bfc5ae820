package core

import (
	"fmt"
	"io"

	"repro/internal/des"
	"repro/internal/memreg"
	"repro/internal/stats"
)

// Metrics is a point-in-time snapshot of a cluster's observable state,
// suitable for experiment reports and the command-line tools.
type Metrics struct {
	SimTime des.Time

	// Server side.
	ServerCPUPct      float64
	ServerInterrupts  int64
	ServerTPTUtilPct  float64
	ServerPortTxPct   float64
	ServerPortRxPct   float64
	ServerExposedMRs  int64 // remotely accessible registrations right now
	ServerExposedEver int64
	ParkedReplies     int
	Registration      memreg.Stats

	// Disk back end (zero-valued for tmpfs).
	DiskUtilPct   float64
	CacheHitRatio float64
	DiskBytesRead int64

	// Per-client CPU utilization.
	ClientCPUPct []float64

	// Fabric counters (op counts, bytes, errors).
	Fabric []stats.CounterValue

	// busy holds the cumulative readings behind the utilization figures, so
	// that a later snapshot can take its window against this one.
	busy busySeconds
}

// busySeconds are cumulative unit-seconds consumed since simulation start.
type busySeconds struct {
	serverCPU, tpt, tx, rx, disk float64
	clientCPU                    []float64
}

// Metrics snapshots the cluster. Utilizations are computed over the window
// that opened at the earlier snapshot since (nil = at simulation start), as
// the difference of two cumulative busy-second readings: a resource keeps no
// history of its occupancy, so only a reading taken at the window's start
// can say what was consumed before it.
func (c *Cluster) Metrics(since *Metrics) Metrics {
	srv := c.Server.Node
	m := Metrics{
		SimTime:           c.Sim.Now(),
		ServerInterrupts:  srv.CPU.Interrupts(),
		ServerExposedMRs:  srv.HCA.RemoteExposedBytes(),
		ServerExposedEver: srv.HCA.RemoteExposedEver(),
		Fabric:            c.Fabric.Counters.Snapshot(),
	}
	if since == nil {
		since = &Metrics{}
	}
	elapsed := (m.SimTime - since.SimTime).Seconds()
	// pct is the utilization over the window of a resource with the given
	// number of units, from its cumulative reading now and at the window's
	// start.
	pct := func(now, then float64, units int) float64 {
		if elapsed <= 0 {
			return 0
		}
		return (now - then) / (float64(units) * elapsed) * 100
	}
	b, was := &m.busy, &since.busy
	b.serverCPU = srv.CPU.TotalBusySeconds()
	b.tpt = srv.HCA.TPTEngineBusySeconds()
	b.tx, b.rx = srv.TxPort().BusySeconds(), srv.RxPort().BusySeconds()
	m.ServerCPUPct = pct(b.serverCPU, was.serverCPU, srv.CPU.Cores())
	m.ServerTPTUtilPct = pct(b.tpt, was.tpt, 1)
	m.ServerPortTxPct = pct(b.tx, was.tx, srv.TxPort().Capacity())
	m.ServerPortRxPct = pct(b.rx, was.rx, srv.RxPort().Capacity())
	if c.Server.Mgr != nil {
		m.Registration = c.Server.Mgr.Stats()
	}
	if c.Server.RDMA != nil {
		m.ParkedReplies = c.Server.RDMA.ParkedReplies()
	}
	if c.Server.Disk != nil {
		b.disk = c.Server.Disk.BusySeconds()
		m.DiskUtilPct = pct(b.disk, was.disk, c.Server.Disk.Disks())
		m.DiskBytesRead = c.Server.Disk.BytesRead
	}
	if c.Server.Cache != nil {
		if tot := c.Server.Cache.Hits + c.Server.Cache.Misses; tot > 0 {
			m.CacheHitRatio = float64(c.Server.Cache.Hits) / float64(tot)
		}
	}
	for i, cl := range c.Clients {
		var then float64
		if i < len(was.clientCPU) {
			then = was.clientCPU[i]
		}
		b.clientCPU = append(b.clientCPU, cl.Node.CPU.TotalBusySeconds())
		m.ClientCPUPct = append(m.ClientCPUPct, pct(b.clientCPU[i], then, cl.Node.CPU.Cores()))
	}
	return m
}

// Write renders the snapshot as a human-readable report.
func (m Metrics) Write(w io.Writer) {
	fmt.Fprintf(w, "simulated time: %v\n", m.SimTime)
	fmt.Fprintf(w, "server: cpu %.1f%%  tpt-engine %.1f%%  port tx/rx %.1f%%/%.1f%%  interrupts %d\n",
		m.ServerCPUPct, m.ServerTPTUtilPct, m.ServerPortTxPct, m.ServerPortRxPct, m.ServerInterrupts)
	fmt.Fprintf(w, "server exposure: %d bytes now, %d MRs ever; parked replies %d\n",
		m.ServerExposedMRs, m.ServerExposedEver, m.ParkedReplies)
	fmt.Fprintf(w, "registration: dynamic=%d fmr=%d fallbacks=%d cacheHits=%d cacheMisses=%d evictions=%d\n",
		m.Registration.Registers, m.Registration.FMRMaps, m.Registration.FMRFallback,
		m.Registration.CacheHits, m.Registration.CacheMisses, m.Registration.Evictions)
	if m.DiskBytesRead > 0 || m.DiskUtilPct > 0 {
		fmt.Fprintf(w, "disk: util %.1f%%  read %d bytes  cache hit ratio %.2f\n",
			m.DiskUtilPct, m.DiskBytesRead, m.CacheHitRatio)
	}
	for i, u := range m.ClientCPUPct {
		fmt.Fprintf(w, "client%d: cpu %.1f%%\n", i, u)
	}
	for _, cv := range m.Fabric {
		fmt.Fprintf(w, "  fabric %-24s %d\n", cv.Name, cv.Value)
	}
}
