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

func muxConfig(design rpcrdma.Design, clients int) Config {
	return Config{
		Profile: profiles.LinuxSDR(), Transport: TransportRDMA,
		Design: design, RegMode: memreg.Regular, CopyData: true,
		Clients: clients, Multiplex: true, ServerShards: 2,
	}
}

// TestMuxClusterIntegrity is the full-stack multiplexed-mode check: several
// clients attached as endpoints on shared shard QPs write and read back
// patterned files through the whole NFS/RPC/RDMA stack, in both bulk
// designs. Also pins the memory story at cluster level: receive-side state
// scales with shards, not with clients (each extra client costs one slot
// entry, not a QP context plus a credit window of ring buffers).
func TestMuxClusterIntegrity(t *testing.T) {
	for _, design := range []rpcrdma.Design{rpcrdma.ReadWrite, rpcrdma.ReadRead} {
		t.Run(design.String(), func(t *testing.T) {
			cluster := NewCluster(muxConfig(design, 4))
			cluster.Start("t", func(p *des.Proc) {
				for i, cl := range cluster.Clients {
					f, err := cl.Create(p, "f")
					if err != nil {
						t.Errorf("client %d create: %v", i, err)
						return
					}
					const size = 96 << 10
					wbuf := cl.NewMaterializedBuffer(size)
					for j, d := 0, wbuf.Bytes(); j < size; j++ {
						d[j] = byte(j*7 + i)
					}
					if _, err := f.WriteAt(p, wbuf, 0, 0, size, true); err != nil {
						t.Errorf("client %d write: %v", i, err)
						return
					}
					rbuf := cl.NewMaterializedBuffer(size)
					n, _, err := f.ReadAt(p, rbuf, 0, 0, size, true)
					if err != nil || n != size {
						t.Errorf("client %d read: n=%d err=%v", i, n, err)
						return
					}
					for j, got := range rbuf.Bytes() {
						if got != byte(j*7+i) {
							t.Errorf("client %d byte %d = %#x, want %#x", i, j, got, byte(j*7+i))
							return
						}
					}
				}
				eps := 0
				for _, st := range cluster.Server.RDMA.ShardStats() {
					eps += st.Endpoints
				}
				if eps != cluster.Cfg.Clients {
					t.Errorf("live endpoints = %d, want %d", eps, cluster.Cfg.Clients)
				}
			})
			cluster.Run()
		})
	}
}

// TestMuxRecvStateScalesWithShardsNotClients pins the tentpole memory claim
// at cluster level by measuring the marginal receive-state cost of adding
// clients. Multiplexed: each extra client costs exactly one endpoint slot
// entry. Per-connection sharded dispatch: each costs a full QP context —
// O(connections) state the shared QPs eliminate.
func TestMuxRecvStateScalesWithShardsNotClients(t *testing.T) {
	recvState := func(mux bool, clients int) int64 {
		cfg := muxConfig(rpcrdma.ReadWrite, clients)
		cfg.Multiplex = mux
		cluster := NewCluster(cfg)
		var got int64
		cluster.Start("t", func(p *des.Proc) {
			got = cluster.Server.RDMA.RecvStateBytes()
		})
		cluster.Run()
		return got
	}
	const extra = 8
	if diff := recvState(true, 12) - recvState(true, 4); diff != extra*ibsim.EndpointSlotBytes {
		t.Errorf("mux marginal cost of %d clients = %d B, want %d (one slot entry each)",
			extra, diff, extra*ibsim.EndpointSlotBytes)
	}
	if diff := recvState(false, 12) - recvState(false, 4); diff != extra*ibsim.QPContextBytes {
		t.Errorf("per-conn marginal cost of %d clients = %d B, want %d (one QP context each)",
			extra, diff, extra*ibsim.QPContextBytes)
	}
}

// TestMuxReconnectRestoresService: killing one endpoint's QP must break only
// that client, and Reconnect must re-attach through the same admission path
// (TryAttach) and restore service — with the freed slot reused, not leaked.
func TestMuxReconnectRestoresService(t *testing.T) {
	cluster := NewCluster(muxConfig(rpcrdma.ReadWrite, 3))
	cl := cluster.Clients[0]
	bystander := cluster.Clients[1]
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
		slotsBefore := muxSlotTotal(cluster)

		breakConnection(p, cl)
		if !cl.RDMA.Broken() {
			t.Error("connection should report broken after protection error")
		}
		p.Sleep(time.Millisecond) // let the shard observe the endpoint death
		// Blast radius: the sibling endpoint on the shared QP still works.
		if _, err := bystander.Stat(p, "persist"); err != nil {
			t.Errorf("bystander on shared QP broken by sibling death: %v", err)
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
		// The redial rotates to the next shard, so the freed slot may sit on
		// a different shard than the new endpoint — but one reconnect can
		// grow the total slot population by at most one.
		if got := muxSlotTotal(cluster); got > slotsBefore+1 {
			t.Errorf("slot table grew %d -> %d across one reconnect; freed slot not reused", slotsBefore, got)
		}
	})
	cluster.Run()
}

func muxSlotTotal(c *Cluster) int {
	total := 0
	for _, st := range c.Server.RDMA.ShardStats() {
		total += st.MuxSlots
	}
	return total
}

// TestMuxClientChurnNoSlotLeak drives repeated break/reconnect cycles on one
// client: every cycle must detach the dead endpoint (freeing its slot and its
// credit sub-account) before the redial attaches a fresh one, so the shared
// QP's slot table stays at its initial size no matter how many times clients
// come and go.
func TestMuxClientChurnNoSlotLeak(t *testing.T) {
	cluster := NewCluster(muxConfig(rpcrdma.ReadWrite, 2))
	cl := cluster.Clients[0]
	cluster.Start("t", func(p *des.Proc) {
		f, err := cl.Create(p, "churn")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		buf := cl.NewMaterializedBuffer(4096)
		baseline := muxSlotTotal(cluster)
		for cycle := 0; cycle < 12; cycle++ {
			breakConnection(p, cl)
			p.Sleep(500 * time.Microsecond)
			if err := cl.Reconnect(p); err != nil {
				t.Fatalf("cycle %d reconnect: %v", cycle, err)
			}
			if _, err := f.WriteAt(p, buf, 0, 0, 4096, true); err != nil {
				t.Fatalf("cycle %d write: %v", cycle, err)
			}
		}
		// Redials rotate across shards, so each shard's table can reach the
		// concurrent-endpoint high water (= Clients); what a detach leak
		// would show is growth proportional to the cycle count.
		bound := cluster.Cfg.Clients * len(cluster.Server.RDMA.ShardStats())
		if got := muxSlotTotal(cluster); got > bound {
			t.Errorf("slot table grew %d -> %d over 12 churn cycles (bound %d); endpoint detach leaks slots", baseline, got, bound)
		}
		if got := cluster.Server.RDMA.LiveConns(); got != cluster.Cfg.Clients {
			t.Errorf("live conns = %d after churn, want %d", got, cluster.Cfg.Clients)
		}
	})
	cluster.Run()
}

// TestMuxCrashRestartRecovery runs the crash/restart primitive with shared
// QPs: the crash flushes every endpoint through its shard's shared QP, the
// restarted transport arms fresh shared QPs, and recovery re-attaches every
// client and replays so no write is lost. Exercises Shutdown's shared-QP
// teardown and RestartServer inheriting the multiplexed config.
func TestMuxCrashRestartRecovery(t *testing.T) {
	cfg := muxConfig(rpcrdma.ReadWrite, 2)
	cfg.Profile = recoveryProfile()
	cfg.Recovery = &RetryPolicy{MaxReconnects: 20, Backoff: 50 * time.Microsecond, MaxBackoff: 500 * time.Microsecond}
	cluster := NewCluster(cfg)
	cl := cluster.Clients[0]
	const (
		records = 8
		recSize = 64 << 10
	)
	cluster.Start("t", func(p *des.Proc) {
		cluster.ScheduleServerCrash(p.Now()+des.Time(500*time.Microsecond), 300*time.Microsecond)

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
		rc, _ := cl.RecoveryStats()
		if rc < 1 {
			t.Errorf("reconnects = %d, want >= 1 (crash did not land on the burst?)", rc)
		}
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
