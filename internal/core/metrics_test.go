package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/memreg"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
)

func TestMetricsSnapshot(t *testing.T) {
	cluster := NewCluster(Config{
		Profile: profiles.LinuxDDR(), Transport: TransportRDMA,
		Design: rpcrdma.ReadWrite, RegMode: memreg.Cache,
		Backend: BackendDisk, PageCacheBytes: 16 << 20, Clients: 2,
	})
	cluster.Start("io", func(p *des.Proc) {
		cl := cluster.Clients[0]
		f, _ := cl.Create(p, "m")
		buf := cl.NewBuffer(1 << 20)
		for i := 0; i < 32; i++ {
			f.WriteAt(p, buf, 0, int64(i)<<20, 1<<20, false)
		}
		for i := 0; i < 32; i++ {
			f.ReadAt(p, buf, 0, int64(i)<<20, 1<<20, true)
		}
		m := cluster.Metrics(nil)
		if m.SimTime <= 0 {
			t.Error("no simulated time")
		}
		if m.Registration.CacheHits == 0 {
			t.Error("no cache activity recorded")
		}
		if m.DiskBytesRead == 0 {
			t.Error("disk traffic not recorded")
		}
		if len(m.ClientCPUPct) != 2 {
			t.Errorf("client CPU entries = %d", len(m.ClientCPUPct))
		}
		if m.ServerExposedEver != 0 {
			t.Error("read-write server should never expose MRs")
		}
		var sb strings.Builder
		m.Write(&sb)
		for _, want := range []string{"server:", "registration:", "disk:", "fabric"} {
			if !strings.Contains(sb.String(), want) {
				t.Errorf("report missing %q:\n%s", want, sb.String())
			}
		}
	})
	cluster.Run()
}

// TestMetricsWindowing pins the regression where CPU utilizations ignored
// the snapshot's `since` argument: a window opened after all the work is
// done must report idle CPUs on every host, client and server alike, while
// the full-run snapshot still shows the activity.
func TestMetricsWindowing(t *testing.T) {
	cluster := NewCluster(Config{
		Profile: profiles.LinuxSDR(), Transport: TransportRDMA,
		Design: rpcrdma.ReadWrite, RegMode: memreg.Regular, Clients: 2,
	})
	cluster.Start("windowed-io", func(p *des.Proc) {
		cl := cluster.Clients[0]
		f, err := cl.Create(p, "w")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		buf := cl.NewBuffer(256 << 10)
		for i := 0; i < 16; i++ {
			if _, err := f.WriteAt(p, buf, 0, int64(i)<<18, 256<<10, false); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
		busyEnd := cluster.Metrics(nil)
		p.Sleep(des.Duration(busyEnd.SimTime)) // an equally long fully idle tail

		full := cluster.Metrics(nil)
		tail := cluster.Metrics(&busyEnd)
		if full.ClientCPUPct[0] <= 0 {
			t.Fatalf("full-run client CPU = %v, want > 0", full.ClientCPUPct[0])
		}
		if full.ServerCPUPct <= 0 {
			t.Fatalf("full-run server CPU = %v, want > 0", full.ServerCPUPct)
		}
		for i, u := range tail.ClientCPUPct {
			if u > 0.01 {
				t.Errorf("idle-window client%d CPU = %v%%, want ~0 (since ignored?)", i, u)
			}
		}
		if tail.ServerCPUPct > 0.01 {
			t.Errorf("idle-window server CPU = %v%%, want ~0 (since ignored?)", tail.ServerCPUPct)
		}
		// A window that opens inside a busy period: every server core busy
		// for the first half, every other one for the second. The second
		// half alone is 50% busy, whatever came before it. (Windows used to
		// be cut from the whole-run busy integral clamped to the window's
		// length, which reads 100% here.)
		cpu := cluster.Server.Node.CPU
		burn := func(cores int, d des.Duration) {
			for i := 0; i < cores; i++ {
				cluster.Sim.Spawn("burn", func(bp *des.Proc) { cpu.Work(bp, d) })
			}
			p.Sleep(d)
		}
		const phase = 10 * time.Millisecond
		burn(cpu.Cores(), phase)
		mid := cluster.Metrics(nil)
		burn(cpu.Cores()/2, phase/2)
		burn(cpu.Cores()/2, phase/2)
		if got := cluster.Metrics(&mid).ServerCPUPct; got < 49 || got > 51 {
			t.Errorf("half-busy window after a fully busy one: server CPU = %.1f%%, want 50%%", got)
		}
		// The busy half alone must show at least the full-run average.
		if half := cluster.Metrics(nil); half.ClientCPUPct[0] < tail.ClientCPUPct[0] {
			t.Errorf("window inversion: full %v < tail %v", half.ClientCPUPct[0], tail.ClientCPUPct[0])
		}
	})
	cluster.Run()
}
