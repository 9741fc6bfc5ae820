package rpcrdma

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ibsim"
	"repro/internal/memreg"
	"repro/internal/oncrpc"
)

// scaleEnv is a multi-client test fixture: one server transport, N client
// nodes each with their own connection.
type scaleEnv struct {
	sim     *des.Sim
	fab     *ibsim.Fabric
	server  *ibsim.Node
	clients []*ibsim.Node
	st      *ServerTransport
	disp    *oncrpc.Dispatcher
	svc     *blobService
	mode    memreg.Mode       // of every Manager; Regular unless set before startServer
	mgrs    []*memreg.Manager // the server's, then each dialed client's
}

func newScaleEnv(sim *des.Sim, nclients int) *scaleEnv {
	fab := ibsim.NewFabric(sim, true)
	e := &scaleEnv{sim: sim, fab: fab, svc: &blobService{}}
	e.server = fab.AddNode(ibsim.NodeConfig{Name: "server", Cores: 8, Seed: 22})
	for i := 0; i < nclients; i++ {
		e.clients = append(e.clients, fab.AddNode(ibsim.NodeConfig{Name: "client", Cores: 2, Seed: uint64(100 + i)}))
	}
	return e
}

func (e *scaleEnv) startServer(p *des.Proc, cfg Config) {
	smgr := memreg.NewManager(p, e.server, memreg.Config{Mode: e.mode})
	e.mgrs = append(e.mgrs, smgr)
	e.disp = oncrpc.NewDispatcher()
	e.disp.Register(e.svc)
	e.st = NewServerTransport(e.server, smgr, e.disp, cfg)
}

// dial connects client i; ok reports whether admission accepted it.
func (e *scaleEnv) dial(p *des.Proc, i int, cfg Config) (*ClientTransport, *oncrpc.Client, *ibsim.QP, bool) {
	cq, sq := e.fab.Connect(e.clients[i], e.server, ibsim.QPConfig{})
	if !e.st.TryServe(sq) {
		return nil, nil, cq, false
	}
	cmgr := memreg.NewManager(p, e.clients[i], memreg.Config{Mode: e.mode})
	e.mgrs = append(e.mgrs, cmgr)
	ct := NewClientTransport(cq, cmgr, cfg)
	return ct, oncrpc.NewClient(ct, 4242, 1, oncrpc.Auth{}), cq, true
}

// TestReleaseParkedPrunesParkedOrder is the regression test for the
// parkedOrder leak: releaseParked used to leave released XIDs in the
// park-order slice, so it grew without bound on a long-lived Read-Read
// connection. The invariant is len(parkedOrder) == parked at all times.
func TestReleaseParkedPrunesParkedOrder(t *testing.T) {
	newEnv(t, ReadRead, memreg.Regular, func(p *des.Proc, e *env) {
		e.svc.stored = pattern(32<<10, 2)
		// Phase 1: honest traffic — every parked reply is released by DONE.
		for i := 0; i < 3; i++ {
			dst := &oncrpc.Bulk{Data: make([]byte, 32<<10), Len: 32 << 10}
			if _, _, err := e.rpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst}); err != nil {
				t.Fatalf("get %d: %v", i, err)
			}
		}
		p.Sleep(time.Millisecond) // drain trailing DONEs
		conn := e.st.conns[0]
		if conn.parked != 0 || len(conn.parkedOrder) != 0 {
			t.Fatalf("after DONE-released cycle: parked=%d len(parkedOrder)=%d, want 0/0",
				conn.parked, len(conn.parkedOrder))
		}
		// Phase 2: withhold DONEs — entries still parked must stay listed.
		e.ct.DropDone = true
		for i := 0; i < 2; i++ {
			dst := &oncrpc.Bulk{Data: make([]byte, 32<<10), Len: 32 << 10}
			if _, _, err := e.rpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst}); err != nil {
				t.Fatalf("pinned get %d: %v", i, err)
			}
		}
		p.Sleep(time.Millisecond)
		if conn.parked != 2 || len(conn.parkedOrder) != conn.parked {
			t.Fatalf("after park/release cycle: parked=%d len(parkedOrder)=%d, want equal at 2",
				conn.parked, len(conn.parkedOrder))
		}
	})
}

// TestAdmissionControl verifies the MaxConns gate: connections beyond the
// cap are terminated with ErrAdmission (visible on both endpoints), and a
// slot freed by a dead connection can be reused.
func TestAdmissionControl(t *testing.T) {
	sim := des.New()
	e := newScaleEnv(sim, 3)
	cfg := Config{Design: ReadWrite, Workers: 2, Shards: 1, SRQDepth: 64, MaxConns: 1}
	sim.Spawn("setup", func(p *des.Proc) {
		e.startServer(p, cfg)
		_, rpc0, cq0, ok := e.dial(p, 0, cfg)
		if !ok {
			t.Fatal("first connection rejected under the cap")
		}
		if _, _, err := rpc0.Call(p, 4, raw([]byte("hi")), oncrpc.CallOpts{}); err != nil {
			t.Fatalf("call on admitted conn: %v", err)
		}
		// Second connection: over the cap.
		_, _, cq1, ok := e.dial(p, 1, cfg)
		if ok {
			t.Fatal("second connection admitted over MaxConns=1")
		}
		if e.st.ConnsRejected != 1 || e.st.ConnsAccepted != 1 {
			t.Fatalf("accepted=%d rejected=%d, want 1/1", e.st.ConnsAccepted, e.st.ConnsRejected)
		}
		if !errors.Is(cq1.Err(), ErrAdmission) {
			t.Fatalf("client QP error %v does not classify as ErrAdmission", cq1.Err())
		}
		// Kill the admitted connection; its slot frees and a redial succeeds.
		cq0.InjectError(nil)
		p.Sleep(time.Millisecond)
		if e.st.LiveConns() != 0 {
			t.Fatalf("live conns = %d after death, want 0", e.st.LiveConns())
		}
		_, rpc2, _, ok := e.dial(p, 2, cfg)
		if !ok {
			t.Fatal("redial rejected after the slot freed")
		}
		if _, _, err := rpc2.Call(p, 4, raw([]byte("again")), oncrpc.CallOpts{}); err != nil {
			t.Fatalf("call on re-admitted conn: %v", err)
		}
	})
	sim.Run()
}

// TestShardedDispatchServesManyConns runs bulk traffic from four clients
// over two shards and checks correctness plus the shard bookkeeping:
// connections hash evenly, every request flows through a shard receive
// loop, and the pooled SRQ is what feeds them.
func TestShardedDispatchServesManyConns(t *testing.T) {
	testBothDesigns(t, func(t *testing.T, design Design) {
		sim := des.New()
		e := newScaleEnv(sim, 4)
		cfg := Config{Design: design, Workers: 4, Shards: 2, SRQDepth: 64}
		completed := 0
		sim.Spawn("setup", func(p *des.Proc) {
			e.startServer(p, cfg)
			e.svc.stored = pattern(64<<10, 7)
			for i := 0; i < 4; i++ {
				i := i
				_, rpc, _, ok := e.dial(p, i, cfg)
				if !ok {
					t.Errorf("conn %d rejected", i)
					return
				}
				sim.Spawn("client", func(cp *des.Proc) {
					for j := 0; j < 4; j++ {
						dst := &oncrpc.Bulk{Data: make([]byte, 64<<10), Len: 64 << 10}
						_, n, err := rpc.Call(cp, 2, nil, oncrpc.CallOpts{RecvBulk: dst})
						if err != nil || n != 64<<10 {
							t.Errorf("conn %d call %d: n=%d err=%v", i, j, n, err)
							return
						}
						if !bytes.Equal(dst.Data, e.svc.stored) {
							t.Errorf("conn %d call %d corrupted", i, j)
							return
						}
						completed++
					}
				})
			}
		})
		sim.Run()
		if completed != 16 {
			t.Fatalf("completed %d calls, want 16", completed)
		}
		st := e.st.ShardStats()
		if len(st) != 2 {
			t.Fatalf("shard stats = %d entries, want 2", len(st))
		}
		var reqs, consumed int64
		for _, s := range st {
			if s.Conns != 2 {
				t.Errorf("shard %d conns = %d, want 2 (hash by conn id)", s.Shard, s.Conns)
			}
			if s.Requests == 0 {
				t.Errorf("shard %d dispatched no requests", s.Shard)
			}
			reqs += s.Requests
			consumed += s.SRQConsumed
		}
		// Every message (16 calls, plus DONEs under Read-Read) consumed a
		// pooled WQE and was dispatched by a shard loop.
		if reqs < 16 || consumed < reqs {
			t.Fatalf("shard requests=%d srq consumed=%d, want >=16 and consumed>=requests", reqs, consumed)
		}
		if e.st.Requests != 16 {
			t.Fatalf("server requests = %d, want 16", e.st.Requests)
		}
	})
}

// TestShardSurvivesConnDeath kills one of two connections sharing a shard
// mid-traffic: the shard's receive loop must release the dead connection's
// parked replies and keep serving the survivor.
func TestShardSurvivesConnDeath(t *testing.T) {
	sim := des.New()
	e := newScaleEnv(sim, 2)
	cfg := Config{Design: ReadRead, Workers: 2, Shards: 1, SRQDepth: 64}
	sim.Spawn("setup", func(p *des.Proc) {
		e.startServer(p, cfg)
		e.svc.stored = pattern(32<<10, 3)
		ct0, rpc0, cq0, _ := e.dial(p, 0, cfg)
		_, rpc1, _, _ := e.dial(p, 1, cfg)
		// Pin two replies on conn 0, then kill it.
		ct0.DropDone = true
		for i := 0; i < 2; i++ {
			dst := &oncrpc.Bulk{Data: make([]byte, 32<<10), Len: 32 << 10}
			if _, _, err := rpc0.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst}); err != nil {
				t.Fatalf("pin %d: %v", i, err)
			}
		}
		if e.st.ParkedReplies() != 2 {
			t.Fatalf("parked = %d before death, want 2", e.st.ParkedReplies())
		}
		cq0.InjectError(nil)
		p.Sleep(time.Millisecond)
		if e.st.ParkedReplies() != 0 {
			t.Fatalf("parked = %d after conn death, want 0 (released)", e.st.ParkedReplies())
		}
		if e.st.LiveConns() != 1 {
			t.Fatalf("live conns = %d, want 1", e.st.LiveConns())
		}
		// The surviving connection on the same shard still works, DONE
		// lifecycle included.
		dst := &oncrpc.Bulk{Data: make([]byte, 32<<10), Len: 32 << 10}
		if _, n, err := rpc1.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst}); err != nil || n != 32<<10 {
			t.Fatalf("survivor call: n=%d err=%v", n, err)
		}
		p.Sleep(time.Millisecond)
		if e.st.ParkedReplies() != 0 {
			t.Fatalf("survivor's DONE not processed: parked = %d", e.st.ParkedReplies())
		}
	})
	sim.Run()
}

// TestHoardingClientClampedGrant audits the clamp-to-1 path of
// advertiseCredits under dynamic credits: a client pinning parked replies
// beyond its credit depth is throttled to the 1-credit floor — it can keep
// making one call at a time, never starve — while a second, honest
// connection keeps its full grant.
func TestHoardingClientClampedGrant(t *testing.T) {
	sim := des.New()
	e := newScaleEnv(sim, 2)
	cfg := Config{Design: ReadRead, Credits: 4, ReplyBufPool: 8, DynamicCredits: true, Workers: 4, Shards: 2, SRQDepth: 64}
	sim.Spawn("setup", func(p *des.Proc) {
		e.startServer(p, cfg)
		e.svc.stored = pattern(16<<10, 5)
		hoardCT, hoardRPC, _, _ := e.dial(p, 0, cfg)
		honestCT, honestRPC, _, _ := e.dial(p, 1, cfg)
		hoardCT.DropDone = true
		// Pin more replies than the credit depth: the per-conn pool (8)
		// still has room, so calls proceed, but the grant hits the floor.
		for i := 0; i < 5; i++ {
			dst := &oncrpc.Bulk{Data: make([]byte, 16<<10), Len: 16 << 10}
			if _, _, err := hoardRPC.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst}); err != nil {
				t.Fatalf("hoarder call %d: %v", i, err)
			}
		}
		if got := hoardCT.GrantedCredits(); got != 1 {
			t.Fatalf("hoarder grant = %d, want the 1-credit floor", got)
		}
		// The honest connection is untouched: its own pool, its own grant.
		for i := 0; i < 3; i++ {
			dst := &oncrpc.Bulk{Data: make([]byte, 16<<10), Len: 16 << 10}
			if _, _, err := honestRPC.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst}); err != nil {
				t.Fatalf("honest call %d: %v", i, err)
			}
			p.Sleep(500 * time.Microsecond) // let each DONE drain
		}
		if got := honestCT.GrantedCredits(); got != int(cfg.Credits) {
			t.Fatalf("honest grant = %d, want full %d", got, cfg.Credits)
		}
		// And the floor still admits work: the hoarder can make progress.
		dst := &oncrpc.Bulk{Data: make([]byte, 16<<10), Len: 16 << 10}
		if _, _, err := hoardRPC.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst}); err != nil {
			t.Fatalf("hoarder post-clamp call: %v", err)
		}
	})
	sim.Run()
}
