package rpcrdma

import (
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ibsim"
	"repro/internal/oncrpc"
)

// victimXID is the first XID the victim's RPC client issues: the simulator
// seeds XID sequences from the (program, version) pair, which is exactly
// what makes them guessable to a DONE forger.
const victimXID = 4242<<8 + 1 + 1

// TestForgedDoneCannotFreeOtherConn: on dedicated connections — both the
// legacy per-connection receive path and the SRQ-sharded one — the parked-
// reply map is keyed by connection, so a forged DONE carrying another
// client's XID must bounce off (DoneRejected) and leave the victim's parked
// reply exactly where it was.
func TestForgedDoneCannotFreeOtherConn(t *testing.T) {
	paths := []struct {
		name string
		cfg  Config
	}{
		{"legacy", Config{Design: ReadRead, Workers: 2}},
		{"sharded", Config{Design: ReadRead, Workers: 2, Shards: 2, SRQDepth: 64}},
	}
	for _, path := range paths {
		path := path
		t.Run(path.name, func(t *testing.T) {
			sim := des.New()
			e := newScaleEnv(sim, 2)
			sim.Spawn("setup", func(p *des.Proc) {
				e.startServer(p, path.cfg)
				e.svc.stored = pattern(32<<10, 3)
				vt, vrpc, _, ok := e.dial(p, 0, path.cfg)
				if !ok {
					t.Error("victim dial rejected")
					return
				}
				// The victim withholds its DONE, pinning one parked reply —
				// the target the forger tries to free.
				vt.DropDone = true
				dst := &oncrpc.Bulk{Data: make([]byte, 32<<10), Len: 32 << 10}
				if _, _, err := vrpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst}); err != nil {
					t.Errorf("victim get: %v", err)
					return
				}
				p.Sleep(time.Millisecond)
				if got := e.st.ParkedReplies(); got != 1 {
					t.Errorf("parked = %d before forgery, want 1", got)
					return
				}
				// The attacker connects normally and replays the victim's XID.
				aq, sq := e.fab.Connect(e.clients[1], e.server, ibsim.QPConfig{})
				if !e.st.TryServe(sq) {
					t.Error("attacker dial rejected")
					return
				}
				rejBefore := e.st.DoneRejected
				forged := &Header{XID: victimXID, Type: MsgDone}
				if cqe := aq.PostAndWait(p, &ibsim.SendWQE{Op: ibsim.OpSend, Payload: forged.Encode()}); cqe.Err != nil {
					t.Errorf("forged DONE send: %v", cqe.Err)
					return
				}
				p.Sleep(time.Millisecond)
				if got := e.st.ParkedReplies(); got != 1 {
					t.Errorf("forged DONE freed a cross-connection park: parked = %d, want 1", got)
				}
				if e.st.DoneRejected != rejBefore+1 {
					t.Errorf("DoneRejected = %d, want %d", e.st.DoneRejected, rejBefore+1)
				}
				if e.st.CrossClientFrees != 0 {
					t.Errorf("CrossClientFrees = %d, want 0", e.st.CrossClientFrees)
				}
			})
			sim.Run()
		})
	}
}

// TestForgedStreamDoneMux: on a shared multiplexed QP the DONE forger can
// also forge the *stream claim* and speak as the victim endpoint. With
// stream-claim validation (the default) the fabric-stamped source exposes
// the forgery: the message is dropped, the park survives, and repeated
// spoofs quarantine only the attacker's endpoint. In trust mode
// (TrustStreamClaims) the same message lands and frees the victim's park —
// the cross-client free the hardening exists to stop.
func TestForgedStreamDoneMux(t *testing.T) {
	for _, trust := range []bool{false, true} {
		trust := trust
		name := "validated"
		if trust {
			name = "trusting"
		}
		t.Run(name, func(t *testing.T) {
			sim := des.New()
			e := newScaleEnv(sim, 2)
			cfg := Config{Design: ReadRead, Multiplex: true, Shards: 1, Workers: 2,
				SRQDepth: 64, TrustStreamClaims: trust}
			if !trust {
				cfg.QuarantineThreshold = 2
			}
			sim.Spawn("setup", func(p *des.Proc) {
				e.startServer(p, cfg)
				e.svc.stored = pattern(32<<10, 3)
				vt, vrpc, ok := e.dialMux(p, 0, cfg)
				if !ok {
					t.Error("victim dial rejected")
					return
				}
				vt.DropDone = true
				dst := &oncrpc.Bulk{Data: make([]byte, 32<<10), Len: 32 << 10}
				if _, _, err := vrpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst}); err != nil {
					t.Errorf("victim get: %v", err)
					return
				}
				p.Sleep(time.Millisecond)
				if got := e.st.ParkedReplies(); got != 1 {
					t.Errorf("parked = %d before forgery, want 1", got)
					return
				}
				vstream := vt.QP().Stream()
				aq, _, ok := e.st.TryAttach(e.clients[1])
				if !ok {
					t.Error("attacker attach rejected")
					return
				}
				spoof := func() error {
					forged := &Header{XID: victimXID, Type: MsgDone}
					cqe := aq.PostAndWait(p, &ibsim.SendWQE{
						Op: ibsim.OpSend, Payload: forged.Encode(), Stream: vstream,
					})
					return cqe.Err
				}
				if err := spoof(); err != nil {
					t.Errorf("spoof send: %v", err)
					return
				}
				p.Sleep(time.Millisecond)
				if trust {
					if got := e.st.ParkedReplies(); got != 0 {
						t.Errorf("trusting server kept park = %d; the attack should have freed it", got)
					}
					if e.st.CrossClientFrees != 1 {
						t.Errorf("CrossClientFrees = %d, want 1", e.st.CrossClientFrees)
					}
					return
				}
				if got := e.st.ParkedReplies(); got != 1 {
					t.Errorf("spoofed DONE freed the victim's park: parked = %d, want 1", got)
				}
				if e.st.SpoofDrops != 1 {
					t.Errorf("SpoofDrops = %d, want 1", e.st.SpoofDrops)
				}
				if e.st.CrossClientFrees != 0 {
					t.Errorf("CrossClientFrees = %d, want 0", e.st.CrossClientFrees)
				}
				// Second spoof crosses the quarantine threshold: the attacker's
				// endpoint dies, the victim's keeps working.
				spoof()
				p.Sleep(time.Millisecond)
				if e.st.Quarantines != 1 {
					t.Errorf("Quarantines = %d, want 1", e.st.Quarantines)
				}
				if aq.Err() == nil {
					t.Error("attacker endpoint should be terminated")
				}
				if _, _, err := vrpc.Call(p, 4, raw([]byte("still here")), oncrpc.CallOpts{}); err != nil {
					t.Errorf("victim endpoint collateral damage: %v", err)
				}
			})
			sim.Run()
		})
	}
}
