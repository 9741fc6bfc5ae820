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

// nonCalls are RPC/RDMA frames with a valid header whose body is not an ONC
// RPC call: a reply, a call of RPC version 3, and a call cut off inside its
// credential.
func nonCalls() [][]byte {
	call := oncrpc.EncodeCall(&oncrpc.CallHeader{XID: 9, Prog: 4242, Vers: 1, Proc: 4,
		Cred: oncrpc.Auth{Flavor: oncrpc.AuthSys, Machine: "intruder"}}, nil)
	v3 := append([]byte(nil), call...)
	binary.BigEndian.PutUint32(v3[8:], 3)
	hdr := (&Header{XID: 9, Credits: 1, Type: MsgRDMA}).Encode()
	var frames [][]byte
	for _, body := range [][]byte{oncrpc.EncodeReply(9, oncrpc.Success, nil), v3, call[:36]} {
		frames = append(frames, append(append([]byte(nil), hdr...), body...))
	}
	return frames
}

// TestServerCountsUndecodableFrames sends frames that do not decode down a
// live connection on each server receive path: a header that does not decode
// is counted in BadHeaders, a body that is not a call in the dispatcher's
// BadCalls, each exactly once and nowhere else, and the connection keeps
// serving.
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
				if _, _, err := rpc.Call(p, 4, raw([]byte("before")), oncrpc.CallOpts{}); err != nil {
					t.Fatalf("call before garbage: %v", err)
				}
				send := func(frame []byte) {
					ct.QP().PostSend(&ibsim.SendWQE{Op: ibsim.OpSend, Payload: frame})
					p.Sleep(time.Millisecond)
				}
				send(garbage)
				if e.st.BadHeaders != 1 || e.st.dispatcher.BadCalls() != 0 {
					t.Errorf("after an undecodable header: BadHeaders = %d, BadCalls = %d, want 1 and 0", e.st.BadHeaders, e.st.dispatcher.BadCalls())
				}
				for i, frame := range nonCalls() {
					send(frame)
					if got := e.st.dispatcher.BadCalls(); got != int64(i+1) || e.st.BadHeaders != 1 {
						t.Errorf("after non-call body %d: BadCalls = %d, BadHeaders = %d, want %d and 1", i, got, e.st.BadHeaders, i+1)
					}
				}
				if ct.Broken() || e.st.LiveConns() != 1 {
					t.Errorf("connection did not survive: broken=%v live=%d", ct.Broken(), e.st.LiveConns())
				}
				res, _, err := rpc.Call(p, 4, raw([]byte("then")), oncrpc.CallOpts{})
				if err != nil || string(res) != "then" {
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
			res, _, err := e.rpc.Call(p, 4, raw([]byte("then")), oncrpc.CallOpts{})
			if err != nil || string(res) != "then" || e.ct.Broken() {
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
				_, _, callErr = e.rpc.Call(cp, 4, raw([]byte("lost")), oncrpc.CallOpts{})
				returned.Fire(nil)
			})
			for len(e.ct.pending) == 0 {
				p.Sleep(100 * time.Nanosecond)
			}
			// Beat the real deposit into the slot: garbage body, then a
			// doorbell claiming it, exactly as the server orders its Writes.
			for _, pend := range e.ct.pending {
				slot := pend.fetch.slot
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
			res, _, err := e.rpc.Call(p, 4, raw([]byte("then")), oncrpc.CallOpts{})
			if err != nil || string(res) != "then" || e.ct.Broken() {
				t.Errorf("call after garbage: res=%q err=%v broken=%v", res, err, e.ct.Broken())
			}
		})
	})
}
