package core

import (
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ibsim"
	"repro/internal/memreg"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
)

// breakConnection forces the client's QP into the error state by issuing a
// bogus remote write (protection error), as a misprogrammed ULP or cable
// event would.
func breakConnection(p *des.Proc, cl *Client) {
	junk := cl.Node.Mem.Alloc(64)
	cl.RDMA.QP().PostAndWait(p, &ibsim.SendWQE{
		WRID: 0xdead, Op: ibsim.OpWrite,
		Local:     []ibsim.LocalSeg{{Buf: junk, Len: 64}},
		RemoteKey: 0x0BADBEEF, RemoteAddr: 0x1000,
	})
}

func TestReconnectRestoresService(t *testing.T) {
	cluster := NewCluster(Config{
		Profile: profiles.LinuxSDR(), Transport: TransportRDMA,
		Design: rpcrdma.ReadWrite, RegMode: memreg.Regular, CopyData: true,
	})
	cl := cluster.Clients[0]
	cluster.Start("t", func(p *des.Proc) {
		f, err := cl.Create(p, "persist")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		buf := cl.NewMaterializedBuffer(4096)
		copy(buf.Bytes(), "survives the reconnect")
		if _, err := f.WriteAt(p, buf, 0, 0, 4096, true); err != nil {
			t.Errorf("write: %v", err)
			return
		}

		breakConnection(p, cl)
		if !cl.RDMA.Broken() {
			t.Error("connection should report broken after protection error")
		}
		if _, _, err := f.ReadAt(p, buf, 0, 0, 4096, false); err == nil {
			t.Error("I/O on a broken connection should fail")
		}

		if err := cl.Reconnect(p); err != nil {
			t.Errorf("reconnect: %v", err)
			return
		}
		rbuf := cl.NewMaterializedBuffer(4096)
		n, _, err := f.ReadAt(p, rbuf, 0, 0, 4096, false)
		if err != nil || n != 4096 {
			t.Errorf("read after reconnect: n=%d err=%v", n, err)
			return
		}
		if string(rbuf.Bytes()[:22]) != "survives the reconnect" {
			t.Error("data lost across reconnect")
		}
		// The file handle (stateless NFSv3) and the whole namespace survive.
		if _, err := cl.Open(p, "persist"); err != nil {
			t.Errorf("open after reconnect: %v", err)
		}
	})
	cluster.Run()
}

// TestReconnectCountsEveryTimeoutOnce: a transport's timeouts stay counted,
// exactly once, in TransportStats and in Totals.RDMA however Reconnect replaces
// it. With one credit, a NULL waits for the credit of another that the server
// crash fails; it then posts on the dead connection and times out 100 µs
// later, on a transport Reconnect is already retiring. In "during the dial"
// the timeout expires while Reconnect redials a server that is down; in
// "failed redial" it expires first, the redial fails (the transport stays
// installed) and a later one succeeds.
func TestReconnectCountsEveryTimeoutOnce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		wait    des.Duration // from the crash to the first Reconnect
		failing bool         // the first Reconnect runs out of dial attempts
	}{
		{"during the dial", 10 * time.Microsecond, false},
		{"failed redial", 300 * time.Microsecond, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prof := profiles.LinuxSDR()
			prof.RDMAClient.Credits = 1
			prof.RDMAClient.CallTimeout = 100 * time.Microsecond
			cluster := NewCluster(Config{Profile: prof, Transport: TransportRDMA, Design: rpcrdma.ReadWrite})
			cl := cluster.Clients[0]
			check := func(when string) {
				t.Helper()
				if to, _ := cl.TransportStats(); to != 1 || cluster.Totals.RDMA.Timeouts != 1 {
					t.Errorf("%s: TransportStats timeouts %d, Totals.RDMA.Timeouts %d, want 1 and 1", when, to, cluster.Totals.RDMA.Timeouts)
				}
			}
			cluster.Start("t", func(p *des.Proc) {
				failed := des.NewQueue(p.Sim(), "failed")
				for i := 0; i < 2; i++ {
					p.Sim().Spawn("null", func(np *des.Proc) { failed.Put(cl.NFS.Null(np)) })
				}
				p.Sleep(5 * time.Microsecond) // the first NULL is in flight, the second waits for its credit
				cluster.CrashServer(p)
				p.Sleep(tc.wait)
				if tc.failing {
					if err := cl.Reconnect(p); err == nil {
						t.Fatal("reconnect to a crashed server succeeded")
					}
					check("after a failed redial")
					cluster.RestartServer(p)
				} else {
					cluster.Sim.Spawn("restart", func(rp *des.Proc) {
						rp.Sleep(300 * time.Microsecond)
						cluster.RestartServer(rp)
					})
				}
				if err := cl.Reconnect(p); err != nil {
					t.Fatalf("reconnect: %v", err)
				}
				for i := 0; i < 2; i++ {
					if v, _ := failed.Get(p); v == nil {
						t.Errorf("a NULL on the crashed connection succeeded")
					}
				}
				check("after the reconnect")
				if err := cl.NFS.Null(p); err != nil {
					t.Errorf("NULL after the reconnect: %v", err)
				}
				check("after a call on the new connection")
			})
			cluster.Run()
		})
	}
}

// TestBrokenConnectionReleasesParkedReplies: reply buffers a dead client
// never acknowledged must be reclaimed when the connection drops — without
// this, §4.1's resource pinning would outlive the attacker.
func TestBrokenConnectionReleasesParkedReplies(t *testing.T) {
	cluster := NewCluster(Config{
		Profile: profiles.SolarisSDR(), Transport: TransportRDMA,
		Design: rpcrdma.ReadRead, RegMode: memreg.Regular,
	})
	cl := cluster.Clients[0]
	cluster.Start("t", func(p *des.Proc) {
		cl.RDMA.DropDone = true
		f, _ := cl.Create(p, "bait")
		buf := cl.NewBuffer(32 << 10)
		f.WriteAt(p, buf, 0, 0, 32<<10, false)
		for i := 0; i < 6; i++ {
			if _, _, err := f.ReadAt(p, buf, 0, 0, 32<<10, false); err != nil {
				return
			}
		}
		if cluster.Server.RDMA.ParkedReplies() != 6 {
			t.Errorf("parked = %d, want 6", cluster.Server.RDMA.ParkedReplies())
		}
		exposedBefore := cluster.Server.Node.HCA.RemoteExposedBytes()
		if exposedBefore == 0 {
			t.Error("read-read replies should be exposed while parked")
		}
		breakConnection(p, cl)
		p.Sleep(10 * time.Millisecond) // let the server's receiver observe the flush
		if got := cluster.Server.RDMA.ParkedReplies(); got != 0 {
			t.Errorf("parked = %d after connection death, want 0", got)
		}
		if got := cluster.Server.Node.HCA.RemoteExposedBytes(); got != 0 {
			t.Errorf("%d bytes still exposed after connection death", got)
		}
	})
	cluster.Run()
}
