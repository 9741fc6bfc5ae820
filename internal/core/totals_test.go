package core_test

import (
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/memreg"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// walkTotals recomputes core.Totals the way the telemetry probes used to on
// every tick: by visiting every client. It is the reference the maintained
// totals are held to; nothing outside the tests walks any more.
func walkTotals(c *core.Cluster) core.Totals {
	var w core.Totals
	for _, cl := range c.Clients {
		if cl.RDMA != nil {
			w.RDMA.Outstanding += int64(cl.RDMA.OutstandingCalls())
			w.RDMA.Granted += int64(cl.RDMA.GrantedCredits())
		}
		to, rt := cl.TransportStats()
		w.RDMA.Timeouts += to
		w.RDMA.Retransmits += rt
		rc, rp := cl.RecoveryStats()
		w.Reconnects += rc
		w.Replays += rp
		if ac := cl.AttrCacheStats(); ac != nil {
			w.AttrHits += ac.AttrHits + ac.LookupHits
			w.AttrMisses += ac.AttrMisses + ac.LookupMisses
		}
		if dc := cl.DataCacheStats(); dc != nil {
			w.DataHits += dc.Hits
			w.DataMisses += dc.Misses
		}
	}
	return w
}

// checkTotalsEveryTick enables telemetry and adds a probe that, on every
// sample tick, holds the maintained totals to the walk. It returns a
// function reporting how many ticks were checked.
func checkTotalsEveryTick(t *testing.T, c *core.Cluster) (ticks func() int) {
	t.Helper()
	n, bad := 0, 0
	tel := c.EnableTelemetry(telemetry.Options{Interval: 20 * time.Microsecond})
	tel.Gauge("test.totals_oracle", func() float64 {
		n++
		if got, want := c.Totals, walkTotals(c); got != want && bad < 5 {
			bad++
			t.Errorf("t=%v: maintained totals %+v, walk over clients %+v", c.Sim.Now(), got, want)
		}
		if c.Totals.RDMA.Outstanding < 0 {
			t.Errorf("t=%v: inflight total went negative: %d", c.Sim.Now(), c.Totals.RDMA.Outstanding)
		}
		return 0
	})
	return func() int { return n }
}

// checkBaseline runs after a workload has drained: nothing in flight, and
// the totals still equal the walk.
func checkBaseline(t *testing.T, c *core.Cluster) {
	t.Helper()
	if got, want := c.Totals, walkTotals(c); got != want {
		t.Errorf("after the run: maintained totals %+v, walk %+v", got, want)
	}
	if n := c.Totals.RDMA.Outstanding; n != 0 {
		t.Errorf("after the run: %d calls still counted in flight", n)
	}
}

// chaosCluster is the cluster chaos.Run builds: per-call watchdogs armed so
// silent losses time out and retransmit.
func chaosCluster(design rpcrdma.Design, mux bool, seed uint64) *core.Cluster {
	prof := profiles.LinuxSDR()
	prof.RDMAClient.CallTimeout = time.Millisecond
	prof.RDMAClient.RetryLimit = 4
	cfg := core.Config{
		Profile: prof, Transport: core.TransportRDMA, Design: design,
		Clients: 3, Backend: core.BackendTmpfs, CopyData: true, Seed: seed,
	}
	if mux {
		cfg.ServerShards, cfg.Multiplex, cfg.Affinity = 2, true, true
	}
	return core.NewCluster(cfg)
}

// TestTotalsEqualWalkUnderChaos drives the integrity-checked chaos workload
// through a server crash that lands on in-flight calls, QP errors, a link
// flap (timeouts, retransmissions) and the reconnects all of them force,
// and on every telemetry tick compares each maintained total with a walk
// over the clients. Reconnect swaps transports while calls are still
// failing back on the old one, which is where a total kept by increments
// can drift from the truth and a walk cannot.
func TestTotalsEqualWalkUnderChaos(t *testing.T) {
	for _, tc := range []struct {
		name   string
		design rpcrdma.Design
		mux    bool
	}{
		{"sharded-mux/read-write", rpcrdma.ReadWrite, true},
		{"sharded-mux/reply-fetch", rpcrdma.ReplyFetch, true},
		{"per-conn/read-read", rpcrdma.ReadRead, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := chaosCluster(tc.design, tc.mux, 7)
			ticks := checkTotalsEveryTick(t, c)
			oracle := chaos.NewOracle()
			us := func(n int) des.Time { return des.Time(time.Duration(n) * time.Microsecond) }
			chaos.Schedule{Seed: 7, Faults: []chaos.Fault{
				{At: us(300), Kind: chaos.FaultQPError, Client: 0},
				{At: us(600), Kind: chaos.FaultLinkFlap, Client: 1},
				{At: us(1000), Kind: chaos.FaultServerCrash, Downtime: 700 * time.Microsecond},
				{At: us(1200), Kind: chaos.FaultQPError, Client: 2}, // while the server is down
				{At: us(2500), Kind: chaos.FaultLinkFlap, Client: 0},
				{At: us(3000), Kind: chaos.FaultServerCrash, Downtime: 300 * time.Microsecond},
			}}.Apply(c, oracle)
			c.Start("chaos", func(p *des.Proc) {
				for _, cl := range c.Clients {
					cl.EnableRecovery(core.RetryPolicy{MaxReconnects: 40, Backoff: 50 * time.Microsecond, MaxBackoff: time.Millisecond})
				}
				if _, err := workload.RunChaosLoad(p, c, oracle); err != nil {
					t.Errorf("workload: %v", err)
				}
				checkBaseline(t, c)
				// The DRC dies with the server: nothing is left to count.
				c.CrashServer(p)
				if n := c.Server.Dispatcher.DRCEntries(); n != 0 {
					t.Errorf("DRC entries after a crash = %d, want 0", n)
				}
				c.RestartServer(p)
			})
			c.RunUntil(des.Time(10 * time.Second))
			if len(oracle.Violations) > 0 {
				t.Errorf("integrity violations: %v", oracle.Violations)
			}
			if c.Crashes != 3 || c.Totals.Reconnects == 0 {
				t.Errorf("crashes=%d reconnects=%d: the schedule did not bite", c.Crashes, c.Totals.Reconnects)
			}
			if ticks() < 100 {
				t.Errorf("only %d ticks checked", ticks())
			}
			t.Logf("%d ticks, totals %+v", ticks(), c.Totals)
		})
	}
}

// TestTotalsEqualWalkMuxRegrant is the flow-control side: sixteen clients on
// two shared QPs with a 64-deep SRQ and dynamic credits, so a reply's grant
// follows the replies its connection has parked and the endpoints on its
// shard, and moves as clients leave and rejoin.
func TestTotalsEqualWalkMuxRegrant(t *testing.T) {
	prof := profiles.LinuxSDR()
	prof.RDMAServer.DynamicCredits = true
	prof.RDMAClient.DynamicCredits = true
	c := core.NewCluster(core.Config{
		Profile: prof, Transport: core.TransportRDMA, Design: rpcrdma.ReadRead,
		RegMode: memreg.Regular, Clients: 16, Multiplex: true, ServerShards: 2, SRQDepth: 64,
	})
	ticks := checkTotalsEveryTick(t, c)
	regranted := false
	c.Start("load", func(p *des.Proc) {
		c.Telemetry().Start(p)
		defer c.Telemetry().Stop()
		wired := c.Totals.RDMA.Granted
		if wired <= 0 {
			t.Errorf("granted total at wiring = %d, want the sum of the initial grants", wired)
		}
		done := des.NewQueue(c.Sim, "done")
		for i, cl := range c.Clients {
			i, cl := i, cl
			cl.EnableRecovery(core.RetryPolicy{})
			c.Sim.Spawn("reader", func(rp *des.Proc) {
				defer done.Put(i)
				f, err := cl.Create(rp, "f")
				if err != nil {
					t.Errorf("client %d create: %v", i, err)
					return
				}
				buf := cl.NewBuffer(64 << 10)
				for n := 0; n < 24; n++ {
					if n == 8 && i%4 == 0 {
						// Leave the shard mid-run: the survivors' share of the
						// SRQ grows, then shrinks again at the re-attach.
						cl.RDMA.QP().InjectError(nil)
					}
					if _, err := f.WriteAt(rp, buf, 0, int64(n)<<16, 64<<10, false); err != nil {
						t.Errorf("client %d write %d: %v", i, n, err)
						return
					}
					if _, _, err := f.ReadAt(rp, buf, 0, int64(n)<<16, 64<<10, false); err != nil {
						t.Errorf("client %d read %d: %v", i, n, err)
						return
					}
					if c.Totals.RDMA.Granted != wired {
						regranted = true
					}
				}
			})
		}
		for range c.Clients {
			done.Get(p)
		}
		p.Sleep(time.Millisecond) // let queued RDMA_DONEs drain
		checkBaseline(t, c)
	})
	c.Run()
	if !regranted {
		t.Error("the granted total never moved off its value at wiring: no regrant was exercised")
	}
	if c.Totals.Reconnects != 4 {
		t.Errorf("reconnects = %d, want 4", c.Totals.Reconnects)
	}
	if ticks() < 100 {
		t.Errorf("only %d ticks checked", ticks())
	}
}

// TestTotalsEqualWalkClientCaches covers the four cache totals: attribute
// and lookup hits and misses fold into one pair, data-cache hits and misses
// into the other.
func TestTotalsEqualWalkClientCaches(t *testing.T) {
	c := core.NewCluster(core.Config{
		Profile: profiles.LinuxSDR(), Transport: core.TransportRDMA, Design: rpcrdma.ReadWrite,
		RegMode: memreg.Cache, Clients: 2, CopyData: true,
	})
	ticks := checkTotalsEveryTick(t, c)
	c.Start("cached-io", func(p *des.Proc) {
		c.Telemetry().Start(p)
		defer c.Telemetry().Stop()
		for i, cl := range c.Clients {
			cl.EnableAttrCache(200 * time.Microsecond)
			if i == 0 {
				cl.EnableDataCache(256 << 10)
			}
			f, err := cl.Create(p, "shared")
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			page := make([]byte, 64<<10)
			for n := 0; n < 12; n++ {
				if i == 0 {
					if _, err := f.WriteAtCached(p, page, int64(n%6)<<16); err != nil {
						t.Fatalf("cached write: %v", err)
					}
					if _, _, err := f.ReadAtCached(p, page, int64(n%3)<<16); err != nil {
						t.Fatalf("cached read: %v", err)
					}
				}
				if _, err := cl.Open(p, "shared"); err != nil {
					t.Fatalf("open: %v", err)
				}
				p.Sleep(70 * time.Microsecond) // some lookups outlive the TTL
			}
		}
		checkBaseline(t, c)
	})
	c.Run()
	tot := c.Totals
	if tot.AttrHits == 0 || tot.AttrMisses == 0 || tot.DataHits == 0 || tot.DataMisses == 0 {
		t.Errorf("a cache total stayed at zero, the scenario does not cover it: %+v", tot)
	}
	if ticks() < 20 {
		t.Errorf("only %d ticks checked", ticks())
	}
}
