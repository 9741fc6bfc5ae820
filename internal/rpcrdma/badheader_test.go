package rpcrdma

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ibsim"
	"repro/internal/memreg"
	"repro/internal/oncrpc"
)

// garbage is a frame no RPC/RDMA peer can decode: too short for the fixed
// header, and the version word it does carry is wrong.
var garbage = []byte{0xde, 0xad, 0xbe, 0xef, 0xff, 0xff, 0xff, 0xff, 0x00}

// TestServerCountsUndecodableFrames sends a garbage frame down a live
// connection on each server receive path: the frame must be counted, not
// silently dropped, and the connection must keep serving.
func TestServerCountsUndecodableFrames(t *testing.T) {
	paths := []struct {
		name string
		cfg  Config
	}{
		{"per-conn", Config{Design: ReadWrite, Workers: 2}},
		{"sharded", Config{Design: ReadWrite, Workers: 2, Shards: 1, SRQDepth: 64}},
		{"mux", Config{Design: ReadWrite, Workers: 2, Shards: 1, SRQDepth: 64, Multiplex: true}},
	}
	for _, path := range paths {
		path := path
		t.Run(path.name, func(t *testing.T) {
			sim := des.New()
			e := newScaleEnv(sim, 1)
			sim.Spawn("setup", func(p *des.Proc) {
				e.startServer(p, path.cfg)
				var ct *ClientTransport
				var rpc *oncrpc.Client
				if path.cfg.Multiplex {
					ct, rpc, _ = e.dialMux(p, 0, path.cfg)
				} else {
					ct, rpc, _, _ = e.dial(p, 0, path.cfg)
				}
				if _, _, err := rpc.Call(p, 4, []byte("before"), oncrpc.CallOpts{}); err != nil {
					t.Fatalf("call before garbage: %v", err)
				}
				ct.QP().PostSend(&ibsim.SendWQE{Op: ibsim.OpSend, Payload: garbage})
				p.Sleep(time.Millisecond)
				if e.st.BadHeaders != 1 {
					t.Errorf("server BadHeaders = %d, want 1", e.st.BadHeaders)
				}
				if ct.Broken() || e.st.LiveConns() != 1 {
					t.Errorf("connection did not survive: broken=%v live=%d", ct.Broken(), e.st.LiveConns())
				}
				res, _, err := rpc.Call(p, 4, []byte("after"), oncrpc.CallOpts{})
				if err != nil || string(res) != "after" {
					t.Errorf("call after garbage: res=%q err=%v", res, err)
				}
			})
			sim.Run()
		})
	}
}

// TestClientCountsUndecodableFrames covers the client's two decode sites. A
// garbage Send from the server side must be counted by the receiver and
// leave the connection usable. A garbage deposit in a reply-fetch slot must
// be counted by the fetch poller; that call is lost to its watchdog (the
// poller has retired), but the connection and the next call are fine.
func TestClientCountsUndecodableFrames(t *testing.T) {
	t.Run("receiver", func(t *testing.T) {
		newEnv(t, ReadWrite, memreg.Regular, func(p *des.Proc, e *env) {
			e.st.conns[0].post(&ibsim.SendWQE{Op: ibsim.OpSend, Payload: garbage})
			p.Sleep(time.Millisecond)
			if e.ct.BadHeaders != 1 {
				t.Errorf("client BadHeaders = %d, want 1", e.ct.BadHeaders)
			}
			res, _, err := e.rpc.Call(p, 4, []byte("after"), oncrpc.CallOpts{})
			if err != nil || string(res) != "after" || e.ct.Broken() {
				t.Errorf("call after garbage: res=%q err=%v broken=%v", res, err, e.ct.Broken())
			}
		})
	})
	t.Run("fetch", func(t *testing.T) {
		newEnv(t, ReplyFetch, memreg.Regular, func(p *des.Proc, e *env) {
			e.ct.cfg.CallTimeout = 200 * time.Microsecond
			var callErr error
			returned := des.NewEvent(e.sim)
			e.sim.Spawn("caller", func(cp *des.Proc) {
				_, _, callErr = e.rpc.Call(cp, 4, []byte("lost"), oncrpc.CallOpts{})
				returned.Fire(nil)
			})
			for len(e.ct.pending) == 0 {
				p.Sleep(100 * time.Nanosecond)
			}
			// Beat the real deposit into the slot: garbage body, then a
			// doorbell claiming it, exactly as the server orders its Writes.
			for _, pend := range e.ct.pending {
				slot := pend.slotChk.Reg.Segments()[0]
				dep := e.server.Mem.AllocMaterialized(doorbellBytes + len(garbage))
				binary.LittleEndian.PutUint64(dep.Data(), uint64(len(garbage))+1)
				copy(dep.Data()[doorbellBytes:], garbage)
				conn := e.st.conns[0]
				conn.post(&ibsim.SendWQE{Op: ibsim.OpWrite, RemoteKey: slot.Rkey, RemoteAddr: slot.Addr + doorbellBytes,
					Local: []ibsim.LocalSeg{{Buf: dep, Off: doorbellBytes, Len: len(garbage)}}})
				conn.post(&ibsim.SendWQE{Op: ibsim.OpWrite, RemoteKey: slot.Rkey, RemoteAddr: slot.Addr,
					Local: []ibsim.LocalSeg{{Buf: dep, Off: 0, Len: doorbellBytes}}})
			}
			returned.Wait(p)
			if !errors.Is(callErr, ErrTimeout) {
				t.Errorf("call with a garbage deposit: err=%v, want a timeout", callErr)
			}
			if e.ct.BadHeaders != 1 {
				t.Errorf("client BadHeaders = %d, want 1", e.ct.BadHeaders)
			}
			res, _, err := e.rpc.Call(p, 4, []byte("after"), oncrpc.CallOpts{})
			if err != nil || string(res) != "after" || e.ct.Broken() {
				t.Errorf("call after garbage: res=%q err=%v broken=%v", res, err, e.ct.Broken())
			}
		})
	})
}
