package oncrpc

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/xdr"
)

func TestCallRoundTrip(t *testing.T) {
	h := &CallHeader{
		XID: 0x1234, Prog: 100003, Vers: 3, Proc: 6,
		Cred: Auth{Flavor: AuthSys, Machine: "client0", UID: 1000, GID: 100, GIDs: []uint32{100, 2000}, Stamp: 7},
		Verf: Auth{Flavor: AuthNone},
	}
	args := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	msg := EncodeCall(h, args)
	got, gotArgs, err := DecodeCall(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got.XID != h.XID || got.Prog != h.Prog || got.Vers != h.Vers || got.Proc != h.Proc {
		t.Fatalf("header = %+v", got)
	}
	if got.Cred.Flavor != AuthSys || got.Cred.UID != 1000 || got.Cred.Machine != "client0" || len(got.Cred.GIDs) != 2 {
		t.Fatalf("cred = %+v", got.Cred)
	}
	if !bytes.Equal(gotArgs, args) {
		t.Fatalf("args = %v", gotArgs)
	}
	// The codec's share of the per-RPC allocation count: the message buffer,
	// sized from the credential, and nothing else.
	if allocs := testing.AllocsPerRun(100, func() { EncodeCall(h, args) }); allocs > 1 {
		t.Fatalf("EncodeCall with an AUTH_SYS credential: %.0f allocs, want 1", allocs)
	}
}

func TestReplyRoundTrip(t *testing.T) {
	msg := EncodeReply(0xabcd, Success, []byte{9, 9, 9, 9})
	xid, stat, res, err := DecodeReply(msg)
	if err != nil {
		t.Fatal(err)
	}
	if xid != 0xabcd || stat != Success || !bytes.Equal(res, []byte{9, 9, 9, 9}) {
		t.Fatalf("got %x %v %v", xid, stat, res)
	}
}

func TestReplyNonSuccessStatus(t *testing.T) {
	msg := EncodeReply(1, ProcUnavail, nil)
	_, stat, _, err := DecodeReply(msg)
	if err != nil || stat != ProcUnavail {
		t.Fatalf("stat=%v err=%v", stat, err)
	}
}

func TestDecodeCallRejectsReply(t *testing.T) {
	msg := EncodeReply(1, Success, nil)
	if _, _, err := DecodeCall(msg); err == nil {
		t.Fatal("decoding a reply as a call should fail")
	}
}

func TestDecodeTruncated(t *testing.T) {
	h := &CallHeader{XID: 1, Prog: 2, Vers: 3, Proc: 4}
	msg := EncodeCall(h, nil)
	for i := 0; i < len(msg); i += 3 {
		if _, _, err := DecodeCall(msg[:i]); err == nil {
			t.Fatalf("truncated call at %d decoded successfully", i)
		}
	}
}

func TestQuickCallHeaderRoundTrip(t *testing.T) {
	f := func(xid, prog, vers, proc, uid, gid uint32, machine string, args []byte) bool {
		h := &CallHeader{
			XID: xid, Prog: prog, Vers: vers, Proc: proc,
			Cred: Auth{Flavor: AuthSys, Machine: machine, UID: uid, GID: gid},
		}
		msg := EncodeCall(h, args)
		got, gotArgs, err := DecodeCall(msg)
		if err != nil || cap(msg) != len(msg) {
			return false
		}
		return got.XID == xid && got.Prog == prog && got.Vers == vers &&
			got.Proc == proc && got.Cred.UID == uid && got.Cred.Machine == machine &&
			bytes.Equal(gotArgs, args)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// echoService reflects args back as results for transport-level tests.
type echoService struct{}

func (echoService) Name() string    { return "echo" }
func (echoService) Program() uint32 { return 777 }
func (echoService) Version() uint32 { return 1 }
func (echoService) HandleThen(req *ServerRequest, resp *ServerResponse, fn func(any), arg any) {
	req.Reply.FixedOpaque(req.Args)
	*resp = ServerResponse{Stat: Success}
	if req.Bulk != nil {
		resp.Bulk = &Bulk{Data: req.Bulk.Data, Len: req.Bulk.Len}
	}
	fn(arg)
}

// loopbackTransport dispatches calls directly, with no simulated network.
type loopbackTransport struct {
	d *Dispatcher
}

func (lt *loopbackTransport) Roundtrip(p *des.Proc, req *Request) (*Response, error) {
	reply, bulkOut, err := lt.d.Dispatch(p, req.Header, DispatchOpts{Bulk: req.SendBulk, RecvBulkCap: bulkCap(req)})
	if err != nil {
		return nil, err
	}
	n := 0
	if bulkOut != nil && req.RecvBulk != nil {
		n = bulkOut.Len
		if req.RecvBulk.Data != nil && bulkOut.Data != nil {
			copy(req.RecvBulk.Data, bulkOut.Data)
		}
	}
	return &Response{Header: reply, BulkLen: n}, nil
}

func bulkCap(req *Request) int {
	if req.RecvBulk == nil {
		return 0
	}
	return req.RecvBulk.Len
}

func (lt *loopbackTransport) Close() {}

func TestClientDispatcherLoopback(t *testing.T) {
	d := NewDispatcher()
	d.Register(echoService{})
	c := NewClient(&loopbackTransport{d: d}, 777, 1, Auth{Flavor: AuthNone})
	sim := des.New()
	sim.Spawn("caller", func(p *des.Proc) {
		res, n, err := c.Call(p, 5, func(e *xdr.Encoder) { e.FixedOpaque([]byte("ping")) }, CallOpts{
			SendBulk: NewBulk([]byte("payload")),
			RecvBulk: &Bulk{Data: make([]byte, 64), Len: 64},
		})
		if err != nil {
			t.Errorf("call: %v", err)
			return
		}
		if string(res) != "ping" {
			t.Errorf("results = %q", res)
		}
		if n != 7 {
			t.Errorf("bulk len = %d", n)
		}
	})
	sim.Run()
}

func TestDispatcherUnknownProgram(t *testing.T) {
	d := NewDispatcher()
	c := NewClient(&loopbackTransport{d: d}, 999, 1, Auth{})
	sim := des.New()
	sim.Spawn("caller", func(p *des.Proc) {
		_, _, err := c.Call(p, 1, nil, CallOpts{})
		if err == nil {
			t.Error("unknown program should fail")
		}
	})
	sim.Run()
}

func TestXIDsIncrease(t *testing.T) {
	d := NewDispatcher()
	d.Register(echoService{})
	lt := &loopbackTransport{d: d}
	c := NewClient(lt, 777, 1, Auth{})
	sim := des.New()
	var xids []uint32
	origRoundtrip := lt.d
	_ = origRoundtrip
	sim.Spawn("caller", func(p *des.Proc) {
		for i := 0; i < 5; i++ {
			before := c.nextXID
			if _, _, err := c.Call(p, 1, nil, CallOpts{}); err != nil {
				t.Errorf("call %d: %v", i, err)
			}
			if c.nextXID != before+1 {
				t.Errorf("xid did not advance")
			}
			xids = append(xids, c.nextXID)
		}
	})
	sim.Run()
	for i := 1; i < len(xids); i++ {
		if xids[i] <= xids[i-1] {
			t.Fatalf("xids not strictly increasing: %v", xids)
		}
	}
}

func TestDeniedReplyDecode(t *testing.T) {
	// Hand-construct a denied reply.
	e := encodeDenied(42)
	_, _, _, err := DecodeReply(e)
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v, want ErrDenied", err)
	}
}

func encodeDenied(xid uint32) []byte {
	b := EncodeReply(xid, Success, nil)
	// Patch reply_stat (offset 8) to denied.
	b[8], b[9], b[10], b[11] = 0, 0, 0, 1
	return b
}

// FuzzDecodeCall holds the call decoder to three properties on any frame:
// it does not panic, a frame that is not a call allocates at most one object
// and one that is at most the header and a machine name and a gid list for
// each of its two credentials (a count in the frame sizes nothing by itself),
// and what decodes encodes back to the same bytes.
func FuzzDecodeCall(f *testing.F) {
	sys := Auth{Flavor: AuthSys, Machine: "client0", UID: 1000, GID: 100, GIDs: []uint32{100, 2000}, Stamp: 7}
	f.Add(EncodeCall(&CallHeader{XID: 0x1234, Prog: 100003, Vers: 3, Proc: 6, Cred: sys}, []byte{1, 2, 3, 4, 5, 6, 7, 8}))
	f.Add(EncodeCall(&CallHeader{XID: 1, Prog: 2, Vers: 3, Proc: 4}, nil))
	f.Add(EncodeCall(&CallHeader{XID: 99, Prog: 555, Vers: 1, Proc: 1, Cred: Auth{Flavor: AuthSys, Machine: "c0"}}, nil))
	f.Add(EncodeCall(&CallHeader{XID: 3, Prog: 4, Vers: 5, Proc: 6, Cred: sys, Verf: sys}, nil))
	f.Add(EncodeReply(1, Success, nil))
	f.Fuzz(func(t *testing.T, frame []byte) {
		allocs := testing.AllocsPerRun(10, func() { DecodeCall(frame) })
		h, args, err := DecodeCall(frame)
		if err != nil {
			if allocs > 1 {
				t.Errorf("rejecting a %d-byte frame (%v): %.0f allocations", len(frame), err, allocs)
			}
			return
		}
		if allocs > 5 {
			t.Errorf("decoding a %d-byte call: %.0f allocations", len(frame), allocs)
		}
		if again := EncodeCall(h, args); !bytes.Equal(again, frame) {
			t.Errorf("%x decodes to %+v and %x, which encode to %x", frame, *h, args, again)
		}
	})
}
