package rpcrdma

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ibsim"
	"repro/internal/memreg"
	"repro/internal/oncrpc"
)

// dialMux attaches client i as a multiplexed endpoint: the server spends a
// slot entry, the client builds a normal transport over its endpoint QP,
// sized to the initial credit grant.
func (e *scaleEnv) dialMux(p *des.Proc, i int, cfg Config) (*ClientTransport, *oncrpc.Client, bool) {
	ep, grant, ok := e.st.TryAttach(e.clients[i])
	if !ok {
		return nil, nil, false
	}
	ccfg := cfg
	ccfg.Credits = grant
	ccfg.Shards, ccfg.Workers = 0, 0
	cmgr := memreg.NewManager(p, e.clients[i], memreg.Config{})
	ct := NewClientTransport(p, ep, cmgr, ccfg)
	return ct, oncrpc.NewClient(ct, 4242, 1, oncrpc.Auth{}), true
}

// TestMuxTransportRoundtrips runs PUT and GET bulk traffic from four
// multiplexed clients over two shared QPs (one per shard), in both designs:
// data integrity end to end, every endpoint demultiplexed correctly, and the
// server's receive state independent of client count.
func TestMuxTransportRoundtrips(t *testing.T) {
	testBothDesigns(t, func(t *testing.T, design Design) {
		sim := des.New()
		e := newScaleEnv(sim, 4)
		cfg := Config{Design: design, Multiplex: true, Shards: 2, Workers: 4, SRQDepth: 64}
		var recvAt1, recvAt4 int64
		sim.Spawn("setup", func(p *des.Proc) {
			e.startServer(p, cfg)
			payload := pattern(64<<10, 7)
			_, rpc0, ok := e.dialMux(p, 0, cfg)
			if !ok {
				t.Error("first mux dial rejected")
				return
			}
			recvAt1 = e.st.RecvStateBytes()
			if _, _, err := rpc0.Call(p, 1, nil, oncrpc.CallOpts{SendBulk: &oncrpc.Bulk{Data: payload, Len: len(payload)}}); err != nil {
				t.Errorf("put: %v", err)
				return
			}
			for i := 1; i < 4; i++ {
				i := i
				_, rpc, ok := e.dialMux(p, i, cfg)
				if !ok {
					t.Errorf("mux dial %d rejected", i)
					return
				}
				sim.Spawn("client", func(cp *des.Proc) {
					for j := 0; j < 3; j++ {
						dst := &oncrpc.Bulk{Data: make([]byte, 64<<10), Len: 64 << 10}
						_, n, err := rpc.Call(cp, 2, nil, oncrpc.CallOpts{RecvBulk: dst})
						if err != nil || n != 64<<10 {
							t.Errorf("client %d get %d: n=%d err=%v", i, j, n, err)
							return
						}
						if !bytes.Equal(dst.Data, payload) {
							t.Errorf("client %d get %d corrupted", i, j)
							return
						}
					}
				})
			}
			recvAt4 = e.st.RecvStateBytes()
		})
		sim.Run()
		// Three extra clients cost three slot entries, not three QP contexts
		// and rings.
		if recvAt4 != recvAt1+3*ibsim.EndpointSlotBytes {
			t.Fatalf("recv state grew %d->%d across 3 attaches, want +%d (slot entries only)",
				recvAt1, recvAt4, 3*ibsim.EndpointSlotBytes)
		}
		var eps int
		for _, st := range e.st.ShardStats() {
			if st.Conns == 0 {
				t.Fatalf("shard %d got no connections (hash skew)", st.Shard)
			}
			eps += st.Endpoints
		}
		if eps != 4 {
			t.Fatalf("live endpoints across shards = %d, want 4", eps)
		}
	})
}

// TestMuxCreditSubAccounting checks that the per-endpoint grant is the
// shard's SRQ depth divided by its endpoint count: as clients pile on, each
// one's advertised window shrinks so aggregate in-flight stays bounded by
// the fixed pool.
func TestMuxCreditSubAccounting(t *testing.T) {
	sim := des.New()
	e := newScaleEnv(sim, 8)
	cfg := Config{Design: ReadWrite, Multiplex: true, Credits: 8, Shards: 1, Workers: 4, SRQDepth: 16}
	sim.Spawn("setup", func(p *des.Proc) {
		e.startServer(p, cfg)
		e.svc.stored = pattern(4<<10, 5)
		var cts []*ClientTransport
		var rpcs []*oncrpc.Client
		for i := 0; i < 8; i++ {
			ct, rpc, ok := e.dialMux(p, i, cfg)
			if !ok {
				t.Fatalf("dial %d rejected", i)
			}
			cts = append(cts, ct)
			rpcs = append(rpcs, rpc)
		}
		// The first client attached alone: its initial grant was the full
		// credit depth (16/1 clamped to 8).
		if got := cts[0].GrantedCredits(); got != 8 {
			t.Fatalf("initial grant = %d, want 8", got)
		}
		// After one reply with all 8 endpoints on the shard, the grant is the
		// sub-account: 16/8 = 2.
		dst := &oncrpc.Bulk{Data: make([]byte, 4<<10), Len: 4 << 10}
		if _, _, err := rpcs[0].Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst}); err != nil {
			t.Fatalf("call: %v", err)
		}
		if got := cts[0].GrantedCredits(); got != 2 {
			t.Fatalf("grant with 8 endpoints = %d, want 16/8 = 2", got)
		}
	})
	sim.Run()
}

// TestMuxEndpointChurnNoLeak is the endpoint-detach leak test: clients
// attach, work, and close, over and over; every piece of per-client server
// state — live conns, demux entries, slot table — must return to baseline,
// with closed endpoints' slots recycled rather than accreted.
func TestMuxEndpointChurnNoLeak(t *testing.T) {
	sim := des.New()
	e := newScaleEnv(sim, 1)
	cfg := Config{Design: ReadWrite, Multiplex: true, Shards: 1, Workers: 2, SRQDepth: 64}
	sim.Spawn("setup", func(p *des.Proc) {
		e.startServer(p, cfg)
		e.svc.stored = pattern(8<<10, 9)
		for i := 0; i < 10; i++ {
			ct, rpc, ok := e.dialMux(p, 0, cfg)
			if !ok {
				t.Fatalf("dial %d rejected", i)
			}
			dst := &oncrpc.Bulk{Data: make([]byte, 8<<10), Len: 8 << 10}
			if _, n, err := rpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst}); err != nil || n != 8<<10 {
				t.Fatalf("cycle %d call: n=%d err=%v", i, n, err)
			}
			ct.Close()
			p.Sleep(time.Millisecond) // detach CQE -> connDead
			if e.st.LiveConns() != 0 {
				t.Fatalf("cycle %d: live conns = %d after close, want 0", i, e.st.LiveConns())
			}
		}
		st := e.st.ShardStats()[0]
		if st.Endpoints != 0 {
			t.Fatalf("endpoints = %d after churn, want 0", st.Endpoints)
		}
		if len(e.st.shards[0].eps) != 0 {
			t.Fatalf("demux table holds %d entries after churn, want 0", len(e.st.shards[0].eps))
		}
		if st.MuxSlots != 1 {
			t.Fatalf("slot table = %d after 10 attach/close cycles, want 1 (leak)", st.MuxSlots)
		}
	})
	sim.Run()
}

// TestMuxSharedQPDeathScopedToShard kills one shard's shared QP under a
// four-client population spread over two shards: only that shard's clients
// die, the other shard keeps serving, and the wounded shard re-arms a fresh
// shared QP that accepts redials.
func TestMuxSharedQPDeathScopedToShard(t *testing.T) {
	sim := des.New()
	e := newScaleEnv(sim, 6)
	cfg := Config{Design: ReadWrite, Multiplex: true, Shards: 2, Workers: 4, SRQDepth: 64}
	sim.Spawn("setup", func(p *des.Proc) {
		e.startServer(p, cfg)
		e.svc.stored = pattern(8<<10, 4)
		var cts []*ClientTransport
		var rpcs []*oncrpc.Client
		for i := 0; i < 4; i++ {
			ct, rpc, ok := e.dialMux(p, i, cfg)
			if !ok {
				t.Fatalf("dial %d rejected", i)
			}
			cts = append(cts, ct)
			rpcs = append(rpcs, rpc)
		}
		// connSeq is 1-based: clients 0,2 landed on shard 0 (seq 2,4);
		// clients 1,3 on shard 1 (seq 1,3... seq%2). Read the placement off
		// the connections before the kill — dead ones are forgotten.
		var shards []int
		for _, conn := range e.st.conns {
			shards = append(shards, conn.shard.id)
		}
		shardOf := func(i int) int { return shards[i] }
		victim := e.st.shards[0]
		victim.muxQP.InjectError(nil)
		p.Sleep(time.Millisecond)
		for i := range cts {
			if shardOf(i) == 0 {
				if !cts[i].Broken() {
					t.Fatalf("client %d on the dead shard survived", i)
				}
			} else {
				if cts[i].Broken() {
					t.Fatalf("client %d on the healthy shard died", i)
				}
				dst := &oncrpc.Bulk{Data: make([]byte, 8<<10), Len: 8 << 10}
				if _, n, err := rpcs[i].Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst}); err != nil || n != 8<<10 {
					t.Fatalf("survivor %d call: n=%d err=%v", i, n, err)
				}
			}
		}
		if victim.muxQP.Err() != nil {
			t.Fatal("shard did not re-arm a fresh shared QP")
		}
		// Redial until a client lands on the re-armed shard and verify it
		// round-trips.
		for i := 4; i < 6; i++ {
			_, rpc, ok := e.dialMux(p, i, cfg)
			if !ok {
				t.Fatalf("redial %d rejected", i)
			}
			dst := &oncrpc.Bulk{Data: make([]byte, 8<<10), Len: 8 << 10}
			if _, n, err := rpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst}); err != nil || n != 8<<10 {
				t.Fatalf("redial %d call: n=%d err=%v", i, n, err)
			}
		}
		if e.st.shards[0].nconns == 0 {
			t.Fatal("no redial reached the re-armed shard")
		}
	})
	sim.Run()
}

// TestMuxAffinityMigrations pins the completion-to-CPU affinity model: with
// workers spread across cores, completions handled on the shard's CPU wake
// workers elsewhere and pay MigrationCost; with affinity on, every handoff
// is a warm-cache local wake and the run finishes no later.
func TestMuxAffinityMigrations(t *testing.T) {
	run := func(affinity bool) (migrations, localWakes int64, end des.Time) {
		sim := des.New()
		fab := ibsim.NewFabric(sim, false)
		server := fab.AddNode(ibsim.NodeConfig{Name: "server", Cores: 4, MigrationCost: 2 * time.Microsecond, Seed: 22})
		svc := &blobService{stored: pattern(16<<10, 3)}
		cfg := Config{Design: ReadWrite, Multiplex: true, Shards: 2, Workers: 8, SRQDepth: 64, Affinity: affinity}
		var st *ServerTransport
		sim.Spawn("setup", func(p *des.Proc) {
			smgr := memreg.NewManager(p, server, memreg.Config{})
			disp := oncrpc.NewDispatcher()
			disp.Register(svc)
			st = NewServerTransport(p, server, smgr, disp, cfg)
			for i := 0; i < 4; i++ {
				cn := fab.AddNode(ibsim.NodeConfig{Name: "client", Cores: 2, Seed: uint64(100 + i)})
				ep, grant, ok := st.TryAttach(cn)
				if !ok {
					t.Errorf("dial %d rejected", i)
					return
				}
				ccfg := cfg
				ccfg.Credits, ccfg.Shards, ccfg.Workers = grant, 0, 0
				cmgr := memreg.NewManager(p, cn, memreg.Config{})
				rpc := oncrpc.NewClient(NewClientTransport(p, ep, cmgr, ccfg), 4242, 1, oncrpc.Auth{})
				sim.Spawn("client", func(cp *des.Proc) {
					for j := 0; j < 8; j++ {
						dst := &oncrpc.Bulk{Data: make([]byte, 16<<10), Len: 16 << 10}
						if _, _, err := rpc.Call(cp, 2, nil, oncrpc.CallOpts{RecvBulk: dst}); err != nil {
							t.Errorf("call: %v", err)
							return
						}
					}
				})
			}
		})
		sim.Run()
		return server.CPU.Migrations(), server.CPU.LocalWakes(), sim.Now()
	}
	mSpread, _, endSpread := run(false)
	mPinned, lPinned, endPinned := run(true)
	if mSpread == 0 {
		t.Fatal("spread workers charged no migrations")
	}
	if mPinned != 0 {
		t.Fatalf("affinity-pinned workers charged %d migrations, want 0", mPinned)
	}
	if lPinned == 0 {
		t.Fatal("affinity-pinned workers counted no local wakes")
	}
	if endPinned > endSpread {
		t.Fatalf("affinity run finished at %v, later than spread %v", endPinned, endSpread)
	}
}

// TestMuxDemuxZeroAlloc pins the per-completion demultiplex path — stream id
// to connection — at zero allocations: it runs once per arriving message on
// the shard receive loop.
func TestMuxDemuxZeroAlloc(t *testing.T) {
	res := testing.Benchmark(BenchmarkMuxDemux)
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("demux allocates %d objects/op, want 0", a)
	}
}

func BenchmarkMuxDemux(b *testing.B) {
	sim := des.New()
	e := newScaleEnv(sim, 64)
	cfg := Config{Design: ReadWrite, Multiplex: true, Shards: 1, Workers: 2, SRQDepth: 256}
	var streams []uint32
	sim.Spawn("setup", func(p *des.Proc) {
		e.startServer(p, cfg)
		for i := 0; i < 64; i++ {
			ep, _, ok := e.st.TryAttach(e.clients[i])
			if !ok {
				b.Error("attach rejected")
				return
			}
			streams = append(streams, ep.Stream())
		}
	})
	sim.Run()
	sh := e.st.shards[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn := sh.eps[streams[i%len(streams)]]
		if conn == nil || conn.dead {
			b.Fatal("demux failed to resolve a live endpoint")
		}
	}
}
