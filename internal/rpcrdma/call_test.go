package rpcrdma

import (
	"errors"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/des"
	"repro/internal/ibsim"
	"repro/internal/memreg"
	"repro/internal/oncrpc"
)

// TestCallFillsItsSizeClass pins a Request and its call state, allocated
// together by NewRequest, at 768 bytes of heap, one of the allocator's size
// classes: what a 288-byte Request and a 480-byte pending cost apart. The
// allocator puts an 8-byte header in front of an object over 512 bytes that
// holds pointers, so the call itself must be 760 bytes.
func TestCallFillsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(call{}); n != 760 {
		t.Errorf("a call is %d bytes, want 760", n)
	}
	var ct ClientTransport
	var before, after runtime.MemStats
	const n = 1000
	runtime.ReadMemStats(&before)
	for range n {
		keep = ct.NewRequest()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per != 768 {
		t.Errorf("NewRequest allocates %d bytes, want 768", per)
	}
}

var keep *oncrpc.Request // what TestCallFillsItsSizeClass allocates escapes here

// replaying is a recovery layer in miniature: a Roundtrip that fails on a
// broken connection is replayed, same request and XID, on a new one.
type replaying struct {
	cur   *ClientTransport
	dial  func() *ClientTransport
	state any // the call state of the last request made
}

func (r *replaying) Room(req *oncrpc.Request) int { return r.cur.Room(req) }
func (r *replaying) NewRequest() *oncrpc.Request {
	req := r.cur.NewRequest()
	r.state = req.State
	return req
}
func (r *replaying) Close() {}
func (r *replaying) Roundtrip(p *des.Proc, req *oncrpc.Request) (*oncrpc.Response, error) {
	resp, err := r.cur.Roundtrip(p, req)
	if errors.Is(err, ErrTransport) {
		r.cur = r.dial()
		return r.cur.Roundtrip(p, req)
	}
	return resp, err
}

// TestReplayGetsItsOwnCallState: the call state a request is allocated with
// serves the Roundtrip on the transport that made it, once. The request's
// first attempt dies with its connection; replayed on a fresh transport it
// runs on a pending of that transport's own, so a late reply on the retired
// transport — matched there by XID, or handed to the state it left behind —
// cannot complete the replay, which ends with its own connection's reply.
func TestReplayGetsItsOwnCallState(t *testing.T) {
	testBothDesigns(t, func(t *testing.T, design Design) {
		newEnv(t, design, memreg.Regular, func(p *des.Proc, e *env) {
			old := e.ct
			mgr := memreg.NewManager(p, e.client, memreg.Config{Mode: memreg.Regular})
			r := &replaying{cur: old, dial: func() *ClientTransport {
				cq, sq := e.fab.Connect(e.client, e.server, ibsim.QPConfig{})
				e.st.TryServe(sq)
				return NewClientTransport(cq, mgr, Config{Design: design})
			}}
			e.sim.Spawn("probe", func(pp *des.Proc) {
				for len(old.pending) == 0 {
					pp.Sleep(100 * time.Nanosecond)
				}
				old.QP().InjectError(nil) // before the call reaches the server
				for r.cur == old || len(r.cur.pending) == 0 {
					pp.Sleep(100 * time.Nanosecond)
				}
				first, _ := r.state.(*pending)
				var pend *pending
				var xid uint32
				for xid, pend = range r.cur.pending {
				}
				if first == nil || first.t != old {
					t.Errorf("the request came with state %v, want a pending of the transport that made it", r.state)
					return
				}
				if pend == first || pend.t != r.cur {
					t.Errorf("the replay runs on %p, the request's own state is %p: want a pending of the new transport's own", pend, first)
				}
				stale := Header{XID: xid, Credits: 1, Type: MsgRDMA}
				wire := stale.frame(append(make([]byte, hdrBase), oncrpc.EncodeReply(xid, oncrpc.Success, []byte("stale!!!"))...), hdrBase)
				old.receiveReply(&ibsim.CQE{Payload: wire})
				hdr, body, _ := DecodeHeader(wire)
				old.handleReply(first, hdr, body)
				if pend.done.Fired() {
					t.Error("a late reply on the retired transport completed the replay")
				}
			})
			rpc := oncrpc.NewClient(r, 4242, 1, oncrpc.Auth{})
			if res, _, err := rpc.Call(p, 4, raw([]byte("ping")), oncrpc.CallOpts{}); err != nil || string(res) != "ping" {
				t.Errorf("replayed call: %q, %v; want the new connection's reply", res, err)
			}
			if r.cur == old {
				t.Error("the call was not replayed")
			}
		})
	})
}

// TestDeniedCallFailsFast: a call whose credential the server does not speak
// is answered MSG_DENIED / AUTH_ERROR, so the client fails it with
// oncrpc.ErrDenied at once instead of waiting until its timer gives up; the
// server counts it in BadCalls.
func TestDeniedCallFailsFast(t *testing.T) {
	testBothDesigns(t, func(t *testing.T, design Design) {
		newEnv(t, design, memreg.Regular, func(p *des.Proc, e *env) {
			const timeout = 200 * time.Microsecond
			cq, sq := e.fab.Connect(e.client, e.server, ibsim.QPConfig{})
			e.st.TryServe(sq)
			mgr := memreg.NewManager(p, e.client, memreg.Config{Mode: memreg.Regular})
			ct := NewClientTransport(cq, mgr, Config{Design: design, CallTimeout: timeout})
			rpc := oncrpc.NewClient(ct, 4242, 1, oncrpc.Auth{Flavor: 6}) // RPCSEC_GSS
			start := p.Now()
			_, _, err := rpc.Call(p, 4, raw([]byte("ping")), oncrpc.CallOpts{})
			if !errors.Is(err, oncrpc.ErrDenied) {
				t.Errorf("call with an unsupported credential: %v, want ErrDenied", err)
			}
			if took := des.Duration(p.Now() - start); took >= timeout || ct.Timeouts != 0 || ct.Broken() {
				t.Errorf("denied after %v, %d timeouts, connection broken %v: want at once, on a live connection", took, ct.Timeouts, ct.Broken())
			}
			if n := e.st.dispatcher.BadCalls(); n != 1 {
				t.Errorf("BadCalls = %d, want 1", n)
			}
		})
	})
}
