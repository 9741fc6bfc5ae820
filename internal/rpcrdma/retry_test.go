package rpcrdma

import (
	"errors"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ibsim"
	"repro/internal/memreg"
	"repro/internal/oncrpc"
)

// silentPeer connects a client transport with the given config to a far end
// that posts receives (no RNR) but never replies, and returns both ends.
func silentPeer(p *des.Proc, sim *des.Sim, cfg Config) (*ClientTransport, *ibsim.QP) {
	fab := ibsim.NewFabric(sim, true)
	nodeCfg := ibsim.NodeConfig{Cores: 2, PortBandwidth: 900e6, PortLatency: 3 * time.Microsecond}
	cCfg, sCfg := nodeCfg, nodeCfg
	cCfg.Name, sCfg.Name = "client", "server"
	cn := fab.AddNode(cCfg)
	sn := fab.AddNode(sCfg)
	cq, sq := fab.Connect(cn, sn, ibsim.QPConfig{})
	for i := 0; i < 16; i++ {
		sq.PostRecv(uint64(i), 4096)
	}
	return NewClientTransport(cq, memreg.NewManager(p, cn, memreg.Config{Mode: memreg.Regular}), cfg), sq
}

// A call to a server that never replies fails with ErrTimeout once its
// timer expires — after CallTimeout, with no retransmission on the
// connection and no backoff — and the timeout closes the connection: the
// far end sees it die, and a later call fails at once with a transport error
// the recovery layer replays on a new connection.
func TestCallTimeoutEndsConnection(t *testing.T) {
	sim := des.New()
	sim.Spawn("setup", func(p *des.Proc) {
		ct, sq := silentPeer(p, sim, Config{CallTimeout: time.Millisecond})
		start := sim.Now()
		_, err := ct.Roundtrip(p, &oncrpc.Request{XID: 7, Header: []byte("call")})
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
		if elapsed := time.Duration(sim.Now() - start); elapsed < time.Millisecond || elapsed > 1100*time.Microsecond {
			t.Errorf("elapsed = %v, want ~1ms (one timer, no backoff)", elapsed)
		}
		if ct.Timeouts != 1 || !ct.Broken() || sq.Err() == nil {
			t.Errorf("Timeouts=%d, client broken %v, far end in error %v: want 1 and the connection ended at both ends",
				ct.Timeouts, ct.Broken(), sq.Err() != nil)
		}
		if len(ct.pending) != 0 {
			t.Errorf("pending map should be empty, has %d entries", len(ct.pending))
		}
		before := sim.Now()
		_, err = ct.Roundtrip(p, &oncrpc.Request{XID: 8, Header: []byte("next")})
		if !errors.Is(err, ErrClosed) || sim.Now() != before {
			t.Errorf("call after the timeout: err = %v, want ErrClosed at once", err)
		}
	})
	sim.Run()
}

// A timeout ends every call on its connection, not only its own: the calls
// still waiting there fail with ErrTransport at the timeout's instant, not
// with timeouts of their own, and each is counted once.
func TestTimeoutFailsOtherCallsOnConnection(t *testing.T) {
	sim := des.New()
	sim.Spawn("setup", func(p *des.Proc) {
		ct, _ := silentPeer(p, sim, Config{CallTimeout: time.Millisecond})
		var laterErr error
		var laterEnd des.Time
		sim.SpawnAt(sim.Now()+des.Time(300*time.Microsecond), "later", func(lp *des.Proc) {
			_, laterErr = ct.Roundtrip(lp, &oncrpc.Request{XID: 10, Header: []byte("later")})
			laterEnd = lp.Now()
		})
		_, err := ct.Roundtrip(p, &oncrpc.Request{XID: 9, Header: []byte("call")})
		timedOut := p.Now()
		p.Sleep(2 * time.Millisecond)
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("first call: err = %v, want ErrTimeout", err)
		}
		if !errors.Is(laterErr, ErrTransport) || laterEnd != timedOut {
			t.Errorf("second call: err = %v at %v, want ErrTransport at the first call's timeout, %v", laterErr, laterEnd, timedOut)
		}
		if ct.Timeouts != 1 {
			t.Errorf("Timeouts = %d, want 1", ct.Timeouts)
		}
	})
	sim.Run()
}

// A reply that comes after its call's timeout never reaches the client: the
// timeout closed the connection, so the server's Send flushes instead of
// landing in a receive buffer, and the call stays failed with ErrTimeout.
func TestSlowReplyAfterTimeoutIsFlushed(t *testing.T) {
	sim := des.New()
	sim.Spawn("setup", func(p *des.Proc) {
		ct, sq := silentPeer(p, sim, Config{CallTimeout: time.Millisecond})
		var sendErr error
		sim.Spawn("slow-server", func(srvp *des.Proc) {
			if cqe := sq.RecvCQ.Wait(srvp); cqe == nil || cqe.Err != nil {
				t.Error("the call never reached the server")
				return
			}
			srvp.Sleep(2500 * time.Microsecond)
			reply := &Header{XID: 7, Credits: 1, Type: MsgRDMA}
			sendErr = sq.PostAndWait(srvp, &ibsim.SendWQE{WRID: 99, Op: ibsim.OpSend, Payload: append(reply.Encode(), []byte("pong")...)}).Err
		})
		_, err := ct.Roundtrip(p, &oncrpc.Request{XID: 7, Header: []byte("ping")})
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("roundtrip: %v, want ErrTimeout", err)
		}
		p.Sleep(3 * time.Millisecond)
		if sendErr == nil {
			t.Error("the late reply was sent on a connection its call's timeout closed")
		}
		if ct.StrayReplies != 0 || ct.BadHeaders != 0 {
			t.Errorf("%d stray replies, %d bad headers: the late reply reached the client", ct.StrayReplies, ct.BadHeaders)
		}
	})
	sim.Run()
}
