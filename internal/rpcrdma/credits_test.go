package rpcrdma

import (
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ibsim"
	"repro/internal/memreg"
	"repro/internal/oncrpc"
)

func TestCreditGateBasics(t *testing.T) {
	sim := des.New()
	g := newCreditGate(sim, 2)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		sim.Spawn("w", func(p *des.Proc) {
			g.acquire(p)
			order = append(order, i)
			p.Sleep(10 * time.Microsecond)
			g.release()
		})
	}
	sim.Run()
	if len(order) != 4 {
		t.Fatalf("completed %d acquisitions", len(order))
	}
	if g.Outstanding() != 0 {
		t.Fatalf("outstanding = %d at end", g.Outstanding())
	}
}

func TestCreditGateShrinkAndGrow(t *testing.T) {
	sim := des.New()
	g := newCreditGate(sim, 4)
	maxConcurrent := 0
	active := 0
	for i := 0; i < 12; i++ {
		sim.Spawn("w", func(p *des.Proc) {
			g.acquire(p)
			active++
			if active > maxConcurrent {
				maxConcurrent = active
			}
			p.Sleep(time.Millisecond)
			active--
			g.release()
		})
	}
	sim.Spawn("shrink", func(p *des.Proc) {
		p.Sleep(100 * time.Microsecond)
		g.setGranted(1)
		p.Sleep(5 * time.Millisecond)
		g.setGranted(8)
	})
	sim.Run()
	if maxConcurrent > 8 {
		t.Fatalf("max concurrent = %d exceeded the largest grant", maxConcurrent)
	}
	if g.Granted() != 8 {
		t.Fatalf("granted = %d", g.Granted())
	}
}

// TestCreditGateWaiterChurnDrains queues a deep waiter backlog behind a
// shrunken grant and verifies the ring-buffered waiter list (which replaced
// the retention-prone waiters[1:] re-slicing — see des.Ring) fully drains
// under heavy churn and the gate keeps granting afterwards.
func TestCreditGateWaiterChurnDrains(t *testing.T) {
	sim := des.New()
	g := newCreditGate(sim, 1)
	completed := 0
	for i := 0; i < 200; i++ {
		sim.Spawn("w", func(p *des.Proc) {
			g.acquire(p)
			p.Sleep(time.Microsecond)
			g.release()
			completed++
		})
	}
	sim.Spawn("grow", func(p *des.Proc) {
		p.Sleep(50 * time.Microsecond)
		g.setGranted(4)
	})
	sim.Run()
	if completed != 200 {
		t.Fatalf("completed %d acquisitions, want 200", completed)
	}
	if g.waiters.Len() != 0 {
		t.Fatalf("waiter ring not drained: %d left", g.waiters.Len())
	}
	if g.Outstanding() != 0 {
		t.Fatalf("outstanding = %d at end", g.Outstanding())
	}
}

func TestCreditGateNeverRevokesLastCredit(t *testing.T) {
	sim := des.New()
	g := newCreditGate(sim, 4)
	g.setGranted(0)
	if g.Granted() != 1 {
		t.Fatalf("grant floor = %d, want 1", g.Granted())
	}
	done := false
	sim.Spawn("w", func(p *des.Proc) {
		g.acquire(p)
		done = true
		g.release()
	})
	sim.Run()
	if !done {
		t.Fatal("progress stopped under zero grant")
	}
}

// TestDynamicCreditsThrottleUnderPinnedReplies drives the §4.1 attack with
// dynamic credits enabled: as the misbehaving client pins reply buffers,
// the server's advertised grant falls and the client observes it.
func TestDynamicCreditsThrottleUnderPinnedReplies(t *testing.T) {
	sim := des.New()
	fab := ibsim.NewFabric(sim, true)
	client := fab.AddNode(ibsim.NodeConfig{Name: "client", Cores: 2})
	server := fab.AddNode(ibsim.NodeConfig{Name: "server", Cores: 4})
	svc := &blobService{stored: pattern(32<<10, 1)}
	sim.Spawn("setup", func(p *des.Proc) {
		cq, sq := fab.Connect(client, server, ibsim.QPConfig{})
		cmgr := memreg.NewManager(p, client, memreg.Config{})
		smgr := memreg.NewManager(p, server, memreg.Config{})
		disp := oncrpc.NewDispatcher()
		disp.Register(svc)
		cfg := Config{Design: ReadRead, Credits: 16, DynamicCredits: true}
		st := NewServerTransport(p, server, smgr, disp, cfg)
		st.TryServe(sq)
		ct := NewClientTransport(p, cq, cmgr, cfg)
		ct.DropDone = true // withhold DONEs: server buffers pin
		rpc := oncrpc.NewClient(ct, 4242, 1, oncrpc.Auth{})
		grantBefore := ct.GrantedCredits()
		for i := 0; i < 10; i++ {
			dst := &oncrpc.Bulk{Data: make([]byte, 32<<10), Len: 32 << 10}
			if _, _, err := rpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst}); err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
		}
		if ct.GrantedCredits() >= grantBefore {
			t.Errorf("grant did not shrink: before %d, after %d (parked %d)",
				grantBefore, ct.GrantedCredits(), st.ParkedReplies())
		}
		if st.ParkedReplies() != 10 {
			t.Errorf("parked = %d, want 10", st.ParkedReplies())
		}
	})
	sim.Run()
}

// TestDynamicCreditsStabilize verifies that once the client behaves again,
// the grant stops falling and holds at capacity minus the permanently
// pinned buffers — the attacker's earlier damage is bounded, not repaired
// (nothing can retroactively send the withheld DONEs).
func TestDynamicCreditsStabilize(t *testing.T) {
	sim := des.New()
	fab := ibsim.NewFabric(sim, true)
	client := fab.AddNode(ibsim.NodeConfig{Name: "client", Cores: 2})
	server := fab.AddNode(ibsim.NodeConfig{Name: "server", Cores: 4})
	svc := &blobService{stored: pattern(16<<10, 2)}
	sim.Spawn("setup", func(p *des.Proc) {
		cq, sq := fab.Connect(client, server, ibsim.QPConfig{})
		cmgr := memreg.NewManager(p, client, memreg.Config{})
		smgr := memreg.NewManager(p, server, memreg.Config{})
		disp := oncrpc.NewDispatcher()
		disp.Register(svc)
		cfg := Config{Design: ReadRead, Credits: 16, DynamicCredits: true}
		st := NewServerTransport(p, server, smgr, disp, cfg)
		st.TryServe(sq)
		ct := NewClientTransport(p, cq, cmgr, cfg)
		rpc := oncrpc.NewClient(ct, 4242, 1, oncrpc.Auth{})
		ct.DropDone = true
		for i := 0; i < 8; i++ {
			dst := &oncrpc.Bulk{Data: make([]byte, 16<<10), Len: 16 << 10}
			rpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst})
		}
		pinned := st.ParkedReplies() // 8: permanently lost to the attack
		ct.DropDone = false          // behave again
		for i := 0; i < 8; i++ {
			dst := &oncrpc.Bulk{Data: make([]byte, 16<<10), Len: 16 << 10}
			rpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst})
		}
		p.Sleep(time.Millisecond) // let trailing DONEs drain
		if st.ParkedReplies() != pinned {
			t.Errorf("parked = %d, want the attack's %d (honest replies released)",
				st.ParkedReplies(), pinned)
		}
		want := 16 - pinned
		if got := ct.GrantedCredits(); got < want-1 || got > want {
			t.Errorf("grant = %d, want to stabilize near %d", got, want)
		}
	})
	sim.Run()
}
