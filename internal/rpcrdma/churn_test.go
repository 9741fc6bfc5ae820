package rpcrdma

import (
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/oncrpc"
)

// TestConnChurnReturnsToBaseline is the dead-connection leak test for all
// three server receive paths: N × (connect → call → kill), with the client
// withholding RDMA_DONE so every cycle dies with a reply still parked. Every
// per-connection server structure — the accept-order list, the shard's
// QP→conn and stream→conn tables, the live counters, parked replies and
// their registrations — must be back at its pre-churn value, the endpoints
// gauge must agree with the shard's live-connection count, and the free lists
// must hold what one call uses, not what six connections did.
func TestConnChurnReturnsToBaseline(t *testing.T) {
	const cycles = 6
	paths := []struct {
		name string
		cfg  Config
	}{
		{"per-conn", Config{Design: ReadRead, Workers: 2}},
		{"sharded", Config{Design: ReadRead, Workers: 2, Shards: 1, SRQDepth: 64}},
		{"mux", Config{Design: ReadRead, Workers: 2, Shards: 1, SRQDepth: 64, Multiplex: true}},
	}
	for _, path := range paths {
		path := path
		t.Run(path.name, func(t *testing.T) {
			sim := des.New()
			e := newScaleEnv(sim, 1)
			sim.Spawn("setup", func(p *des.Proc) {
				e.startServer(p, path.cfg)
				e.svc.stored = pattern(8<<10, 9)
				liveMRs := func() int64 {
					return e.fab.Counters.Get("mr.registered") - e.fab.Counters.Get("mr.deregistered")
				}
				baseMRs := liveMRs()
				for i := 0; i < cycles; i++ {
					var ct *ClientTransport
					var rpc *oncrpc.Client
					var ok bool
					if path.cfg.Multiplex {
						ct, rpc, ok = e.dialMux(p, 0, path.cfg)
					} else {
						ct, rpc, _, ok = e.dial(p, 0, path.cfg)
					}
					if !ok {
						t.Fatalf("cycle %d: dial rejected", i)
					}
					ct.DropDone = true
					dst := &oncrpc.Bulk{Data: make([]byte, 8<<10), Len: 8 << 10}
					if _, n, err := rpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst}); err != nil || n != 8<<10 {
						t.Fatalf("cycle %d call: n=%d err=%v", i, n, err)
					}
					if e.st.ParkedReplies() != 1 {
						t.Fatalf("cycle %d: parked = %d before the kill, want 1", i, e.st.ParkedReplies())
					}
					ct.QP().InjectError(nil)
					p.Sleep(time.Millisecond) // error CQE -> connDead
				}
				if n := len(e.st.conns); n != 0 {
					t.Errorf("transport still lists %d connections after %d kills, want 0", n, cycles)
				}
				if e.st.LiveConns() != 0 || e.st.ParkedReplies() != 0 {
					t.Errorf("live=%d parked=%d, want 0/0", e.st.LiveConns(), e.st.ParkedReplies())
				}
				if got := liveMRs(); got != baseMRs {
					t.Errorf("live MRs = %d, want the pre-churn %d", got, baseMRs)
				}
				if int64(cycles) != e.st.ConnsAccepted {
					t.Errorf("accepted = %d, want %d", e.st.ConnsAccepted, cycles)
				}
				// One call was in flight at a time, so each free list holds one
				// object at most, however many connections came and went.
				if fl := e.freeLists(); fl.wqes > 1 || fl.tasks > 1 || fl.cqes > 1 {
					t.Errorf("free lists after %d cycles of one call each = %+v, want at most 1 each", cycles, fl)
				}
				if path.cfg.Shards == 0 {
					return
				}
				sh := e.st.shards[0]
				if len(sh.conns) != 0 || len(sh.eps) != 0 || sh.nconns != 0 {
					t.Errorf("shard tables after churn: conns=%d eps=%d nconns=%d, want 0/0/0",
						len(sh.conns), len(sh.eps), sh.nconns)
				}
				if got, want := e.st.ShardEndpoints(0), e.st.ShardStats()[0].Conns; got != want {
					t.Errorf("ShardEndpoints(0) = %d, ShardStats().Conns = %d", got, want)
				}
			})
			sim.Run()
		})
	}
}

// TestClientTotalsFollowChurn holds a ClientTotals to a walk through the
// same connect → call → kill churn, with one difference that matters to a
// sum kept by increments: each connection is replaced while its calls are
// still in flight, so their credits come back after the transport has left
// the set. Those late releases must land in the retired transport's own
// totals and never drive the set's below what its one live member holds.
func TestClientTotalsFollowChurn(t *testing.T) {
	const cycles, callers = 6, 3
	for _, path := range []struct {
		name string
		cfg  Config
	}{
		{"per-conn", Config{Design: ReadRead, Workers: 2, CallTimeout: 200 * time.Microsecond}},
		{"sharded", Config{Design: ReadWrite, Workers: 2, Shards: 1, SRQDepth: 64, CallTimeout: 200 * time.Microsecond}},
		{"mux", Config{Design: ReplyFetch, Workers: 2, Shards: 1, SRQDepth: 64, Multiplex: true, CallTimeout: 200 * time.Microsecond}},
	} {
		t.Run(path.name, func(t *testing.T) {
			sim := des.New()
			e := newScaleEnv(sim, 1)
			var tot ClientTotals
			var cur *ClientTransport
			var all []*ClientTransport // every member so far: the call counts are cumulative
			check := func(when string) {
				t.Helper()
				var want ClientTotals
				if cur != nil {
					want.Outstanding, want.Granted = int64(cur.OutstandingCalls()), int64(cur.GrantedCredits())
				}
				for _, ct := range all {
					want.Timeouts += ct.Timeouts
				}
				if tot != want {
					t.Fatalf("%s: totals %+v, walk %+v", when, tot, want)
				}
			}
			sim.Spawn("setup", func(p *des.Proc) {
				e.startServer(p, path.cfg)
				e.svc.stored = pattern(8<<10, 9)
				returned := 0
				for i := 0; i < cycles; i++ {
					var ct *ClientTransport
					var rpc *oncrpc.Client
					var ok bool
					if path.cfg.Multiplex {
						ct, rpc, ok = e.dialMux(p, 0, path.cfg)
					} else {
						ct, rpc, _, ok = e.dial(p, 0, path.cfg)
					}
					if !ok {
						t.Fatalf("cycle %d: dial rejected", i)
					}
					if cur != nil {
						cur.SumInto(new(ClientTotals))
					}
					ct.SumInto(&tot)
					ct.CountInto(&tot.CallCounts)
					cur = ct
					all = append(all, ct)
					check("after the swap")
					for c := 0; c < callers; c++ {
						sim.Spawn("caller", func(cp *des.Proc) {
							dst := &oncrpc.Bulk{Data: make([]byte, 8<<10), Len: 8 << 10}
							rpc.Call(cp, 2, nil, oncrpc.CallOpts{RecvBulk: dst}) // fails once the QP dies
							returned++
							check("as a call returned")
						})
					}
					p.Sleep(2 * time.Microsecond)
					if n := ct.OutstandingCalls(); n != callers {
						t.Fatalf("cycle %d: %d calls in flight at the kill, want %d", i, n, callers)
					}
					check("calls in flight")
					ct.QP().InjectError(nil)
				}
				p.Sleep(5 * time.Millisecond)
				if returned != cycles*callers {
					t.Fatalf("%d of %d calls returned", returned, cycles*callers)
				}
				check("drained")
				if tot.Outstanding != 0 {
					t.Errorf("in-flight total after the churn = %d, want 0", tot.Outstanding)
				}
				cur.SumInto(new(ClientTotals))
				if tot.Outstanding != 0 || tot.Granted != 0 {
					t.Errorf("empty set still sums to %+v", tot)
				}
			})
			sim.Run()
		})
	}
}
