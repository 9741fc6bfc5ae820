package rpcrdma

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ibsim"
	"repro/internal/memreg"
	"repro/internal/oncrpc"
	"repro/internal/trace"
)

// TestShutdownRefusesDialsWhileDraining: Shutdown marks the transport
// draining, then releases every parked reply, which under dynamic
// registration takes the deregistrations' virtual time. A connection dialled
// inside that drain is not in the snapshot Shutdown tears down, so admission
// must refuse it: otherwise it stays live after the crash, its loop still
// receiving once the work queues are closed.
func TestShutdownRefusesDialsWhileDraining(t *testing.T) {
	const size = 64 << 10
	newEnv(t, ReadRead, memreg.Regular, func(p *des.Proc, e *env) {
		e.svc.stored = pattern(size, 5)
		e.ct.DropDone = true // the reply stays parked
		dst := &oncrpc.Bulk{Data: make([]byte, size), Len: size}
		if _, _, err := e.rpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst}); err != nil {
			t.Fatalf("GET: %v", err)
		}
		if e.st.ParkedReplies() == 0 {
			t.Fatal("no reply parked: nothing for Shutdown to drain")
		}
		var late *ibsim.QP
		start := p.Now()
		e.sim.SpawnAt(start+des.Time(time.Microsecond), "dialer", func(dp *des.Proc) {
			_, late = e.fab.Connect(e.client, e.server, ibsim.QPConfig{})
			e.st.TryServe(late)
		})
		e.st.Shutdown(p)
		if late == nil {
			t.Fatalf("Shutdown drained in %v, before the dial: not the race this test is about", p.Now()-start)
		}
		if n := e.st.LiveConns(); n != 0 {
			t.Errorf("%d live connections after Shutdown, want 0", n)
		}
		if late.Err() == nil {
			t.Error("the connection dialled during the drain is not in error")
		}
	})
}

// TestEveryReceivedFrameIsCounted kills a loaded server's connections with
// frames still queued on its receive CQs — on the per-connection path and on
// a sharded one — and reconciles: every frame a server CQ received is a
// request served, an RDMA_DONE, a bad header, a spoof drop or a dropped task.
// The crash comes at the first of a few instants that finds frames queued.
func TestEveryReceivedFrameIsCounted(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for at := 200 * time.Microsecond; at < 300*time.Microsecond; at += 3 * time.Microsecond {
				if crashCounted(t, shards, at) {
					return
				}
			}
			t.Fatal("no frame queued when the connections died: not the case this test is about")
		})
	}
}

// crashCounted crashes the server at instant at, and reports whether frames
// were queued then; if they were, it checks the count.
func crashCounted(t *testing.T, shards int, at time.Duration) bool {
	{
		{
			sim := des.New()
			fab := ibsim.NewFabric(sim, true)
			cfg := ibsim.NodeConfig{Cores: 4, PortBandwidth: 900e6, PortLatency: 3 * time.Microsecond, WQEOverhead: 300 * time.Nanosecond,
				InterruptCost: 10 * time.Microsecond}
			scfg := cfg
			scfg.Name = "server"
			server := fab.AddNode(scfg)
			tr := trace.New(1 << 20)
			sim.SetTracer(tr)
			var st *ServerTransport
			queued := 0
			sim.Spawn("setup", func(p *des.Proc) {
				disp := oncrpc.NewDispatcher()
				disp.Register(&blobService{})
				st = NewServerTransport(server, memreg.NewManager(p, server, memreg.Config{}), disp,
					Config{Design: ReadWrite, Workers: 8, Shards: shards, PerOpCPU: time.Microsecond})
				for c := 0; c < 4; c++ {
					ccfg := cfg
					ccfg.Name = fmt.Sprintf("client%d", c)
					client := fab.AddNode(ccfg)
					cq, sq := fab.Connect(client, server, ibsim.QPConfig{})
					st.TryServe(sq)
					rpc := oncrpc.NewClient(NewClientTransport(cq, memreg.NewManager(p, client, memreg.Config{}), Config{Design: ReadWrite}), 4242, 1, oncrpc.Auth{})
					for k := 0; k < 8; k++ {
						sim.Spawn("caller", func(cp *des.Proc) {
							for {
								if _, _, err := rpc.Call(cp, 4, raw([]byte("ping")), oncrpc.CallOpts{}); err != nil {
									return
								}
							}
						})
					}
				}
				p.Sleep(at)
				for _, conn := range st.conns {
					queued += conn.qp.RecvCQ.Len()
				}
				for _, sh := range st.shards {
					queued += sh.cq.Len()
				}
				st.Shutdown(p)
			})
			sim.Run()
			if queued == 0 {
				return false
			}
			var frames int64
			for _, ev := range tr.Events() {
				if ev.Kind == trace.KindCQE && ev.Phase == trace.PhaseBegin && ev.Name == ibsim.OpRecv.String() &&
					ev.Arg > 0 && strings.HasPrefix(ev.Track, "server/") {
					frames++
				}
			}
			counted := st.Requests + st.DoneRecv + st.BadHeaders + st.SpoofDrops + st.TasksDropped
			if frames != counted {
				t.Errorf("%d frames received, %d counted: Requests %d + DoneRecv %d + BadHeaders %d + SpoofDrops %d + TasksDropped %d",
					frames, counted, st.Requests, st.DoneRecv, st.BadHeaders, st.SpoofDrops, st.TasksDropped)
			}
			return true
		}
	}
}
