package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/memreg"
	"repro/internal/oncrpc"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
	"repro/internal/trace"
)

// TestCrashRestartRecovery is the crash/restart primitive end to end: a
// server crash mid-burst kills every connection, the downtime window rejects
// redials, and once the server restarts the recovery layer reconnects and
// replays so every write still lands. The bumped write verifier makes the
// reboot observable at the protocol level.
func TestCrashRestartRecovery(t *testing.T) {
	cluster := NewCluster(Config{
		Profile: recoveryProfile(), Transport: TransportRDMA,
		Design: rpcrdma.ReadWrite, RegMode: memreg.Regular, CopyData: true,
	})
	cl := cluster.Clients[0]
	const (
		records = 16
		recSize = 128 << 10
	)
	cluster.Start("t", func(p *des.Proc) {
		cl.EnableRecovery(RetryPolicy{
			MaxReconnects: 20, Backoff: 50 * time.Microsecond, MaxBackoff: 500 * time.Microsecond,
		})
		verfBefore := cluster.Server.NFS.WriteVerf()
		cluster.ScheduleServerCrash(p.Now()+des.Time(1*time.Millisecond), 300*time.Microsecond)

		f, err := cl.Create(p, "data")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		buf := cl.NewMaterializedBuffer(recSize)
		for rec := 0; rec < records; rec++ {
			fill := byte(1 + rec)
			b := buf.Bytes()
			for i := range b {
				b[i] = fill
			}
			n, err := f.WriteAt(p, buf, 0, int64(rec)*recSize, recSize, true)
			if err != nil || n != recSize {
				t.Errorf("write %d: n=%d err=%v", rec, n, err)
			}
		}

		if cluster.Crashes != 1 {
			t.Errorf("Crashes = %d, want 1", cluster.Crashes)
		}
		if cluster.ServerDown() {
			t.Error("server still down after scheduled restart")
		}
		rc, _ := cl.RecoveryStats()
		if rc < 1 {
			t.Errorf("reconnects = %d, want >= 1 (crash did not land on the burst?)", rc)
		}
		if got := cluster.Server.NFS.WriteVerf(); got == verfBefore {
			t.Errorf("write verifier unchanged across restart (%#x); clients cannot detect the reboot", got)
		}

		// Every byte survived the crash exactly once.
		rbuf := cl.NewMaterializedBuffer(recSize)
		for rec := 0; rec < records; rec++ {
			n, _, err := f.ReadAt(p, rbuf, 0, int64(rec)*recSize, recSize, false)
			if err != nil || n != recSize {
				t.Errorf("read %d: n=%d err=%v", rec, n, err)
				continue
			}
			want := byte(1 + rec)
			for i, got := range rbuf.Bytes() {
				if got != want {
					t.Errorf("rec %d byte %d = %#x, want %#x", rec, i, got, want)
					break
				}
			}
		}
	})
	cluster.RunUntil(des.Time(2 * time.Second))
}

// blackholeService accepts NFS calls and never finishes handling them: every
// dispatched request parks its worker forever, so no reply is ever sent and
// clients see pure per-call timeouts (not connection deaths).
type blackholeService struct{}

func (blackholeService) Name() string    { return "blackhole" }
func (blackholeService) Program() uint32 { return 100003 }
func (blackholeService) Version() uint32 { return 3 }
func (blackholeService) Handle(p *des.Proc, req *oncrpc.ServerRequest) oncrpc.ServerResponse {
	p.Sleep(des.Duration(time.Hour))
	return oncrpc.ServerResponse{}
}

// TestRecoveryPropagatesRetriesExhausted pins the typed-error contract
// through the recovery layer: when every attempt times out (server accepts
// connections but never replies), the error that finally surfaces to the
// application after the reconnect budget is spent must still match
// rpcrdma.ErrRetriesExhausted — recovery wraps and retries, it does not
// flatten the sentinel or hang.
func TestRecoveryPropagatesRetriesExhausted(t *testing.T) {
	prof := profiles.LinuxSDR()
	prof.RDMAClient.CallTimeout = 1 * time.Millisecond
	prof.RDMAClient.RetryLimit = 2
	cluster := NewCluster(Config{
		Profile: prof, Transport: TransportRDMA,
		Design: rpcrdma.ReadWrite, RegMode: memreg.Regular, CopyData: true,
	})
	cl := cluster.Clients[0]
	cluster.Start("t", func(p *des.Proc) {
		// Swap the wired server for one whose dispatcher swallows every call:
		// reconnects succeed, replies never come.
		silent := oncrpc.NewDispatcher()
		silent.Register(blackholeService{})
		mgr := memreg.NewManager(p, cluster.Server.Node, memreg.Config{Mode: memreg.Regular})
		cluster.Server.RDMA = rpcrdma.NewServerTransport(p, cluster.Server.Node, mgr, silent, cluster.serverRDMACfg)

		cl.EnableRecovery(RetryPolicy{MaxReconnects: 2, Backoff: 50 * time.Microsecond})
		breakConnection(p, cl)
		_, err := cl.Stat(p, "anything")
		if err == nil {
			t.Fatal("call against a never-replying server succeeded")
		}
		if !errors.Is(err, rpcrdma.ErrRetriesExhausted) {
			t.Errorf("surfaced err = %v, want errors.Is(err, ErrRetriesExhausted)", err)
		}
		if !errors.Is(err, rpcrdma.ErrTimeout) {
			t.Errorf("surfaced err = %v, must still match ErrTimeout", err)
		}
		rc, _ := cl.RecoveryStats()
		if rc < 1 {
			t.Errorf("reconnects = %d, want >= 1 (the broken connection was never replaced)", rc)
		}
	})
	cluster.RunUntil(des.Time(time.Second))
}

// TestCheckExposureBoundsWatchdogMidPull is the MR-leak regression for the
// abandoned-call path: bulk transfers bigger than the per-call watchdog can
// ride out get abandoned mid-pull, and a link flap lands on whatever is
// still in flight. Whatever the outcome of each call, the trace must show
// every staged/exposed client MR torn down within its RPC bounds — a leaked
// registration here was exactly the bug this test pins.
func TestCheckExposureBoundsWatchdogMidPull(t *testing.T) {
	for _, design := range []rpcrdma.Design{rpcrdma.ReadWrite, rpcrdma.ReadRead} {
		t.Run(design.String(), func(t *testing.T) {
			prof := profiles.LinuxSDR()
			// 512 KiB at 900 MB/s is ~580 µs on the wire: a 200 µs watchdog
			// always fires mid-pull.
			prof.RDMAClient.CallTimeout = 200 * time.Microsecond
			prof.RDMAClient.RetryLimit = 1
			cluster := NewCluster(Config{
				Profile: prof, Transport: TransportRDMA,
				Design: design, RegMode: memreg.Regular, CopyData: true,
			})
			tr := cluster.EnableTracing(1 << 20)
			cl := cluster.Clients[0]
			timedOut := false
			cluster.Start("t", func(p *des.Proc) {
				cl.EnableRecovery(RetryPolicy{MaxReconnects: 2, Backoff: 50 * time.Microsecond})
				cluster.Fabric.ScheduleLinkFlap(p.Now()+des.Time(500*time.Microsecond), cl.Node, cluster.Server.Node)
				f, err := cl.Create(p, "big")
				if err != nil {
					t.Fatalf("create: %v", err)
				}
				buf := cl.NewMaterializedBuffer(512 << 10)
				for rec := 0; rec < 4; rec++ {
					// Expected to fail: the watchdog cannot ride out the
					// transfer. The staged chunks must still be torn down.
					f.WriteAt(p, buf, 0, int64(rec)<<19, 512<<10, true)
					f.ReadAt(p, buf, 0, int64(rec)<<19, 512<<10, design == rpcrdma.ReadWrite)
				}
				to, _ := cl.TransportStats()
				timedOut = to >= 1
			})
			cluster.RunUntil(des.Time(time.Second))
			if !timedOut {
				t.Fatal("no watchdog timeout fired; the mid-pull abandon path was not exercised")
			}
			if d := tr.Dropped(); d != 0 {
				t.Fatalf("trace ring dropped %d events", d)
			}
			events := tr.Events()
			if err := trace.CheckWQECQE(events); err != nil {
				t.Errorf("WQE/CQE pairing: %v", err)
			}
			if err := trace.CheckExposureBounds(events); err != nil {
				t.Errorf("exposure bounds (leaked staged MR?): %v", err)
			}
		})
	}
}
